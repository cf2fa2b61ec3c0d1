"""Per-layer metrics of a traced run.

Times come from the spans :mod:`perfbench.tracer` records; counts come
from the program's own counters (``index.*``, ``shard.shards_pruned``)
and usage report (``rows_scanned``) wherever the program already counts
the work.  Each metric is listed with the end-to-end metric it should
move in the README.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from repro import obs

from perfbench.tracer import Tracer

FAMILIES = ("spatial", "visual", "categorical", "textual", "temporal", "hybrid")

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("api.framework_us", "us", "lower"),
    ("api.framework_share", "fraction", "lower"),
    ("api.auth_us", "us", "lower"),
    ("api.payload_decode_us", "us", "lower"),
    ("obs.counter_series", "count", "lower"),
    ("obs.counter_values_calls_per_search", "count", "lower"),
    ("obs.counter_values_us_per_search", "us", "lower"),
    *((f"core.execute_us.{family}", "us", "lower") for family in FAMILIES),
    ("core.upload_us", "us", "lower"),
    ("imaging.content_hash_us", "us", "lower"),
    ("features.extract_us", "us", "lower"),
    ("index.lsh.insert_us", "us", "lower"),
    ("index.visual_rtree.insert_us", "us", "lower"),
    ("index.oriented.insert_us", "us", "lower"),
    ("index.oriented.search_us", "us", "lower"),
    ("index.oriented.candidates_per_query", "count", "lower"),
    ("index.oriented.refine_yield", "fraction", "higher"),
    ("geo.intersects_box_us", "us", "lower"),
    ("index.lsh.query_us", "us", "lower"),
    ("index.lsh.candidates_per_query", "count", "lower"),
    ("index.visual_rtree.knn_us", "us", "lower"),
    ("index.visual_rtree.heap_pops_per_query", "count", "lower"),
    ("index.inverted.search_us", "us", "lower"),
    ("core.annotations.lookup_us", "us", "lower"),
    ("db.rows_scanned_per_search", "count", "lower"),
    ("db.table_get_calls_per_search", "count", "lower"),
    ("shard.partitions", "count", "lower"),
    ("shard.partition_s", "s", "lower"),
    ("shard.scatter_us", "us", "lower"),
    ("shard.merge_us", "us", "lower"),
    ("shard.pruned_share", "fraction", "higher"),
    ("db.dump_s", "s", "lower"),
    ("core.blob_save_s", "s", "lower"),
    ("db.load_s", "s", "lower"),
    ("core.index_rebuild_s", "s", "lower"),
    ("snapshot.rows_bytes_per_image", "bytes", "lower"),
    ("snapshot.blobs_bytes_per_image", "bytes", "lower"),
    ("trace.search_p50_ms", "ms", "lower"),
)


def program_counters() -> dict[str, float]:
    """Counter totals by name (labels summed) from the program's registry."""
    totals: dict[str, float] = defaultdict(float)
    for record in obs.metrics().counter_records():
        totals[record["name"]] += record["value"]
    return dict(totals)


def search_usage() -> tuple[float, float]:
    """``(searches, rows_scanned)`` billed to ``POST /search`` so far."""
    for row in obs.usage().report(top=None)["by_operation"]:
        if row["key"] == "POST /search":
            return row["count"], row["charges"].get("rows_scanned", 0.0)
    return 0.0, 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Window:
    """Program counters and usage at the start of the measured phase."""

    def __init__(self) -> None:
        self.counters = program_counters()
        self.usage = search_usage()

    def counter_deltas(self) -> dict[str, float]:
        now = program_counters()
        return {name: value - self.counters.get(name, 0.0) for name, value in now.items()}

    def usage_delta(self) -> tuple[float, float]:
        count, rows = search_usage()
        return count - self.usage[0], rows - self.usage[1]


def layer_metrics(tracer: Tracer, run, window: Window) -> dict[str, float]:
    first = run.first_measured_request
    kinds = tracer.kinds
    durations = tracer.durations()
    # Measured-phase spans by name; a span directly under a span of the
    # same name (a wrapped function calling a wrapped alias) counts once.
    measured: dict[str, list[int]] = defaultdict(list)
    names, parents = tracer.name, tracer.parent
    for i, request in enumerate(tracer.request):
        if request >= first and (parents[i] < 0 or names[parents[i]] != names[i]):
            measured[names[i]].append(i)

    def is_search(request: int) -> bool:
        kind = kinds.get(request, ("", ""))[0]
        return kind.startswith("search.") and kind != "search.read_after_write"

    searches = {r for r, (kind, _) in kinds.items() if r >= first and is_search(r)}
    n_search = len(searches)
    per_request: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    calls_in_search: dict[str, int] = defaultdict(int)
    for name, spans in measured.items():
        for i in spans:
            per_request[name][tracer.request[i]] += durations[i]
            if tracer.request[i] in searches:
                calls_in_search[name] += 1

    def in_searches(name: str) -> float:
        return sum(v for r, v in per_request[name].items() if r in searches)

    def mean(name: str) -> float:
        spans = measured.get(name, [])
        return _ratio(sum(durations[i] for i in spans), len(spans))

    us = 1e6
    handle, execute = in_searches("api.handle"), in_searches("core.execute")
    out = {
        "api.framework_us": _ratio(handle - execute, n_search) * us,
        "api.framework_share": _ratio(handle - execute, handle),
        "api.auth_us": mean("api.auth") * us,
        "api.payload_decode_us": mean("api.payload_decode") * us,
        "obs.counter_series": float(len(obs.metrics().counter_values())),
        "obs.counter_values_calls_per_search": _ratio(
            calls_in_search["obs.counter_values"], n_search),
        "obs.counter_values_us_per_search": _ratio(
            in_searches("obs.counter_values"), n_search) * us,
    }
    by_family: dict[str, list[float]] = defaultdict(list)
    for request, took in per_request["core.execute"].items():
        if request in searches:
            by_family[kinds[request][1]].append(took)
    for family in FAMILIES:
        values = by_family.get(family, [])
        out[f"core.execute_us.{family}"] = _ratio(sum(values), len(values)) * us
    for metric, span in (
        ("core.upload_us", "core.upload"),
        ("imaging.content_hash_us", "imaging.content_hash"),
        ("features.extract_us", "features.extract"),
        ("index.lsh.insert_us", "index.lsh.insert"),
        ("index.visual_rtree.insert_us", "index.visual_rtree.insert"),
        ("index.oriented.insert_us", "index.oriented.insert"),
        ("index.oriented.search_us", "index.oriented.search"),
        ("geo.intersects_box_us", "geo.intersects_box"),
        ("index.lsh.query_us", "index.lsh.query"),
        ("index.visual_rtree.knn_us", "index.visual_rtree.knn"),
        ("index.inverted.search_us", "index.inverted.search"),
        ("core.annotations.lookup_us", "core.annotations.lookup"),
    ):
        out[metric] = mean(span) * us
    delta = window.counter_deltas()
    out["index.oriented.candidates_per_query"] = _ratio(
        delta.get("index.oriented.candidates", 0.0), delta.get("index.oriented.queries", 0.0))
    out["index.oriented.refine_yield"] = _ratio(
        delta.get("index.oriented.refined_hits", 0.0), delta.get("index.oriented.candidates", 0.0))
    out["index.lsh.candidates_per_query"] = _ratio(
        delta.get("index.lsh.candidates", 0.0), delta.get("index.lsh.queries", 0.0))
    out["index.visual_rtree.heap_pops_per_query"] = _ratio(
        delta.get("index.visual_rtree.heap_pops", 0.0), delta.get("index.visual_rtree.queries", 0.0))
    billed, rows = window.usage_delta()
    out["db.rows_scanned_per_search"] = _ratio(rows, billed)
    out["db.table_get_calls_per_search"] = _ratio(calls_in_search["db.table_get"], n_search)
    partitions = measured.get("shard.partition", [])
    out["shard.partitions"] = float(len(partitions))
    out["shard.partition_s"] = mean("shard.partition")
    out["shard.scatter_us"] = _ratio(in_searches("shard.scatter"), n_search) * us
    steady = [r for r in searches if r not in per_request["shard.partition"]]
    merge = sum(
        per_request["shard.router_execute"].get(r, 0.0) - per_request["shard.scatter"].get(r, 0.0)
        for r in steady
    )
    out["shard.merge_us"] = _ratio(merge, len(steady)) * us if run.w.shards > 1 else 0.0
    routed = len(measured.get("shard.router_execute", []))
    out["shard.pruned_share"] = _ratio(delta.get("shard.shards_pruned", 0.0), routed * run.w.shards)
    save, dump = mean("core.save_platform"), mean("db.dump")
    load, load_db = mean("core.load_platform"), mean("db.load")
    out["db.dump_s"] = dump
    out["core.blob_save_s"] = save - dump
    out["db.load_s"] = load_db
    out["core.index_rebuild_s"] = load - load_db
    out["snapshot.rows_bytes_per_image"] = _median(run.rows_bytes)
    out["snapshot.blobs_bytes_per_image"] = _median(run.blobs_bytes)
    out["trace.search_p50_ms"] = run.end_to_end()["search_p50_ms"][0]
    return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def self_time_table(tracer: Tracer, first_request: int, limit: int = 24) -> list[tuple]:
    """``(name, calls, total_ms, self_ms)`` for the measured phase,
    largest self time first."""
    durations = tracer.durations()
    own = tracer.self_times()
    rows: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, name in enumerate(tracer.name):
        if tracer.request[i] >= first_request:
            row = rows[name]
            row[0] += 1
            row[1] += durations[i] * 1e3
            row[2] += own[i] * 1e3
    ranked = sorted(rows.items(), key=lambda item: -item[1][2])[:limit]
    return [(name, int(c), total, self_ms) for name, (c, total, self_ms) in ranked]
