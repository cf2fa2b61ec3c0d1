"""Span recording from outside the program, for the traced run.

:func:`install` replaces public entry points of each serving-path
module with wrappers that record one span per call: name, start, end,
parent span and the benchmark's request id.  No program file changes.
Spans stay in memory and are written out when the run ends.

Shard workers are forked from the coordinator, so they inherit the
wrappers; the wrapped worker entry point clears the spans it inherited,
runs the batch, and ships its own spans back on the worker result,
where the coordinator adopts them under the span that was waiting.
"""

from __future__ import annotations

import functools
import json
import math

NAN = math.nan


class Tracer:
    """Spans as parallel lists (cheap to append, single-threaded use)."""

    def __init__(self) -> None:
        self.clear()
        #: request id -> (operation kind, query family or "")
        self.kinds: dict[int, tuple[str, str]] = {}
        self.request_id = 0

    def clear(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str, clock) -> int:
        index = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(NAN)
        self._stack.append(index)
        self.start.append(clock())
        return index

    def close(self, index: int, clock) -> None:
        self.end[index] = clock()
        self._stack.pop()

    def export(self) -> tuple:
        return (self.name, self.start, self.end, self.parent)

    def adopt(self, shipped: tuple) -> None:
        """Append spans recorded in a worker process under the span that
        is open here (the coordinator's scatter)."""
        names, starts, ends, parents = shipped
        offset = len(self.name)
        here = self._stack[-1] if self._stack else -1
        self.name.extend(names)
        self.start.extend(starts)
        self.end.extend(ends)
        self.parent.extend(here if p < 0 else p + offset for p in parents)
        self.request.extend([self.request_id] * len(names))

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for i, name in enumerate(self.name):
                out.write(json.dumps({
                    "span": i, "name": name, "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "request": self.request[i],
                }) + "\n")

    # -- aggregation -----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover
        (children of one span never overlap: one thread per process,
        and worker batches run one after another)."""
        durations = self.durations()
        own = list(durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= durations[i]
        return own


def _wrap(tracer: Tracer, owner, attr: str, name: str, clock) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.open(name, clock)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close(index, clock)

    setattr(owner, attr, wrapper)


def install(tracer: Tracer, clock) -> None:
    """Wrap the serving path's public entry points (see README map)."""
    from repro.api import service
    from repro.api.auth import ApiKeyManager
    from repro.core import persistence
    from repro.core.annotations import AnnotationService
    from repro.core.platform import TVDP
    from repro.db.table import Table
    from repro.features.color_histogram import ColorHistogramExtractor
    from repro.geo.fov import FieldOfView
    from repro.imaging.image import Image
    from repro.index.hybrid import VisualRTree
    from repro.index.inverted import InvertedIndex
    from repro.index.lsh import LSHIndex
    from repro.index.oriented_rtree import OrientedRTree
    from repro.obs.metrics import MetricsRegistry
    from repro.shard import executor, router

    points = (
        (service.TVDPService, "handle", "api.handle"),
        (ApiKeyManager, "validate", "api.auth"),
        (service, "image_from_payload", "api.payload_decode"),
        (MetricsRegistry, "counter_values", "obs.counter_values"),
        (TVDP, "execute", "core.execute"),
        (TVDP, "upload_image", "core.upload"),
        (Image, "content_hash", "imaging.content_hash"),
        (ColorHistogramExtractor, "extract", "features.extract"),
        (LSHIndex, "insert", "index.lsh.insert"),
        (LSHIndex, "query_topk", "index.lsh.query"),
        (LSHIndex, "query_radius", "index.lsh.query"),
        (LSHIndex, "topk_with_stats", "index.lsh.query"),
        (VisualRTree, "insert", "index.visual_rtree.insert"),
        (VisualRTree, "spatial_visual_knn", "index.visual_rtree.knn"),
        (OrientedRTree, "insert", "index.oriented.insert"),
        (OrientedRTree, "search_range", "index.oriented.search"),
        (OrientedRTree, "search_point", "index.oriented.search"),
        (FieldOfView, "intersects_box", "geo.intersects_box"),
        (InvertedIndex, "search_any", "index.inverted.search"),
        (InvertedIndex, "search_all", "index.inverted.search"),
        (AnnotationService, "images_with_label", "core.annotations.lookup"),
        (Table, "get", "db.table_get"),
        (router, "partition_catalog", "shard.partition"),
        (router.ShardRouter, "execute", "shard.router_execute"),
        (executor.ScatterGatherExecutor, "scatter", "shard.scatter"),
        (persistence, "save_platform", "core.save_platform"),
        (persistence, "load_platform", "core.load_platform"),
        (persistence, "dump_database", "db.dump"),
        (persistence, "load_database", "db.load"),
    )
    for owner, attr, name in points:
        _wrap(tracer, owner, attr, name, clock)

    # Worker side: functools.wraps keeps the entry point's module and
    # qualified name, so the pool pickles the wrapper by reference and
    # the forked worker resolves it to the same wrapper.
    batch = executor._worker_batch

    @functools.wraps(batch)
    def worker_batch(shard_id, tasks):
        tracer.clear()
        index = tracer.open("shard.worker_batch", clock)
        try:
            result = batch(shard_id, tasks)
        finally:
            tracer.close(index, clock)
        object.__setattr__(result, "bench_spans", tracer.export())
        return result

    executor._worker_batch = worker_batch

    fetch = executor.ProcessShardPool.fetch

    @functools.wraps(fetch)
    def fetch_and_adopt(self, ticket, timeout_s):
        result = fetch(self, ticket, timeout_s)
        shipped = result.__dict__.pop("bench_spans", None)
        if shipped is not None:
            tracer.adopt(shipped)
        return result

    executor.ProcessShardPool.fetch = fetch_and_adopt
