"""The three workloads: set-up, measured rounds, answer checks, metrics.

One closed-loop client drives one platform through the public API
(``TVDPService.handle``) and the public persistence calls.  A run is a
fixed number of identical rounds (searches, an ingest burst with dedup
re-uploads, annotations and feature extraction, the read-after-write
probe, and every few rounds a snapshot save/load cycle): the count is
``--seconds`` divided by the round's wall time on the reference host, so
every run does the same work, and operation kinds interleave so that
host drift falls on all of them alike.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro import TVDP
from repro.api.http import Request
from repro.api.service import TVDPService
from repro.core import persistence
from repro.features import ColorHistogramExtractor

from perfbench import corpus, truth
from perfbench.corpus import CLASSIFICATION, EXTRACTOR, LABELS
from perfbench.tracer import Tracer

CLOCK = time.perf_counter
FEATURE_DIMENSION = 50  # color_hsv_20_20_10: 20 + 20 + 10 bins
SETUPS = 3  # base-catalog builds per run; setup_s is their median
WARMUP_SEARCHES = 64
PROBE_SEARCHES = 6  # searches on each loaded snapshot
SPECS = 6000  # length of the search-spec cycle


@dataclass(frozen=True)
class Workload:
    """Input make-up of one workload (recorded in the README)."""

    name: str
    layout: str  # "city" or "street"
    base_images: int
    keys: int = 1
    shards: int = 1
    #: Wall time of one round on the reference host (2-core VM): a run
    #: does ``round(seconds / round_s)`` rounds, so every run of a given
    #: length does the same work and the catalog grows the same way.
    round_s: float = 0.5
    searches_per_round: int = 40
    burst_new: int = 16
    burst_dup: int = 8
    snapshot_every: int = 8


WORKLOADS = {
    w.name: w for w in (
        Workload(name="dashboard_mix", layout="city", base_images=400, round_s=0.41),
        Workload(
            name="tenant_fanout", layout="city", base_images=400, keys=250, round_s=0.95,
            searches_per_round=60, burst_new=6, burst_dup=4, snapshot_every=3,
        ),
        Workload(
            name="street_fov_sharded", layout="street", base_images=500, shards=4, round_s=2.0,
            searches_per_round=100, burst_dup=52, snapshot_every=2,
        ),
    )
}


class Client:
    """Issues requests, times them, and tallies attempts and failures
    per operation kind."""

    def __init__(self, service: TVDPService | None, tracer: Tracer | None) -> None:
        self.service = service
        self.tracer = tracer
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.wrong: list[str] = []
        self.request_id = 0

    def count(self, kind: str, ok: bool, reason: str = "") -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            if len(self.wrong) < 20:
                self.wrong.append(f"{kind}: {reason}")

    def call(self, kind: str, method: str, path: str, body=None, key=None,
             family: str = "", params=None, service: TVDPService | None = None):
        """One request (to ``service``, default the run's own); returns
        ``(response, seconds)``."""
        self.request_id += 1
        if self.tracer is not None:
            self.tracer.request_id = self.request_id
            self.tracer.kinds[self.request_id] = (kind, family)
        request = Request(method, path, params=params or {}, body=body, api_key=key)
        start = CLOCK()
        response = (service or self.service).handle(request)
        return response, CLOCK() - start

    def expect(self, kind: str, response, status: int) -> bool:
        ok = response.status == status
        self.count(kind, ok, f"status {response.status}: {response.body}")
        return ok


class Run:
    """One run of one workload with one seed."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 workdir: str, tracer: Tracer | None = None) -> None:
        self.w = workload
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        derived = seed * 1_000_003 + zlib.crc32(workload.name.encode())
        self.rng = random.Random(derived)
        np_rng = np.random.default_rng(derived)
        # Inputs: base catalog, then the ingest pool, then the search mix.
        self.target_rounds = max(1, round(seconds / workload.round_s))
        pool = workload.burst_new * self.target_rounds
        if workload.layout == "street":
            base = corpus.street_images(np_rng, workload.base_images)
            fresh = corpus.street_images(np_rng, pool, burst=workload.burst_new)
            self.specs = corpus.street_specs(derived, SPECS)
        else:
            base = corpus.city_images(np_rng, workload.base_images)
            fresh = corpus.city_images(np_rng, pool, burst=workload.burst_new)
            self.specs = corpus.dashboard_specs(base, derived, SPECS)
        self.images = corpus.join(base, fresh)
        self.samples = np_rng.choice(workload.base_images, corpus.QUERY_VECTORS, replace=False)
        self.cursor = 0
        # Measurements (seconds unless noted).
        self.setup_s: list[float] = []
        self.search_s: list[float] = []
        self.raw_s: list[float] = []
        self.ingest_s: list[float] = []
        self.features_s: list[float] = []
        self.save_s: list[float] = []
        self.load_s: list[float] = []
        self.snapshot_bytes: list[float] = []
        self.rows_bytes: list[float] = []
        self.blobs_bytes: list[float] = []
        #: visual: (sum of per-query recall, queries); spatial: (true
        #: hits returned, true hits) over all queries
        self.recall = {"visual": [0.0, 0], "spatial": [0, 0]}
        self.rounds = 0
        #: (searches, uploads, features) recorded before each round
        self.marks: list[tuple[int, int, int]] = []

    # -- set-up ------------------------------------------------------------------

    def _new_platform(self) -> tuple[TVDP, TVDPService]:
        platform = TVDP(shards=self.w.shards)
        platform.register_extractor(ColorHistogramExtractor())
        return platform, TVDPService(platform, deterministic_keys=True)

    def setup(self) -> None:
        """Build the base catalog through the API ``setups`` times; the
        median build time is ``setup_s`` and the last build is kept."""
        self.client = Client(None, self.tracer)
        # A traced run reports no setup_s, so it builds the catalog once.
        for attempt in range(1 if self.tracer else SETUPS):
            if attempt:
                self.platform.close()
                self.platform = None
                gc.collect()
            self.platform, self.client.service = self._new_platform()
            start = CLOCK()
            self._build()
            self.setup_s.append(CLOCK() - start)

    def _build(self) -> None:
        w, client = self.w, self.client
        self.keys = []
        self.row_of_id: dict[int, int] = {}
        for k in range(w.keys):
            response, _ = client.call("setup.user", "POST", "/users",
                                      {"name": f"tenant-{k}", "role": "researcher"})
            if client.expect("setup.user", response, 201):
                response, _ = client.call("setup.key", "POST", "/keys",
                                          {"user_id": response.body["user_id"]})
                if client.expect("setup.key", response, 201):
                    self.keys.append(response.body["api_key"])
        key = self.keys[0]
        response, _ = client.call("setup.classification", "POST", "/classifications",
                                  {"name": CLASSIFICATION, "labels": list(LABELS)}, key)
        client.expect("setup.classification", response, 201)
        self.catalog = truth.Catalog()
        for i in range(w.base_images):
            self._upload(client, i, key, "setup.image")
        for image_id in range(1, w.base_images + 1):
            self._annotate(client, image_id, key, "setup.annotate")
        for image_id in range(1, w.base_images + 1):
            self._features(client, image_id, key, "setup.features")
        if w.shards > 1:
            # The first search partitions the catalog and starts the pool.
            self._resolve_vectors()
            self._search(client, self.specs[0], key, "setup.first_search")

    # -- operations -------------------------------------------------------------------

    def _upload(self, client: Client, i: int, key: str, kind: str) -> float:
        response, took = client.call(kind, "POST", "/images", self.images.upload_body(i), key)
        expected_id = len(self.catalog) + 1
        if client.expect(kind, response, 201):
            if response.body.get("image_id") != expected_id or response.body.get("deduplicated"):
                client.count(kind + ".answer", False, f"fresh upload got {response.body}")
            im = self.images
            self.catalog.add(im.lat[i], im.lng[i], im.direction[i], im.angle[i],
                             im.range_m[i], im.captured[i], im.words(i))
            self.row_of_id[expected_id] = i
        return took

    def _reupload(self, client: Client, image_id: int, key: str) -> float:
        kind = "images.duplicate"
        body = self.images.upload_body(self.row_of_id[image_id])
        response, took = client.call(kind, "POST", "/images", body, key)
        if client.expect(kind, response, 200):
            if response.body != {"image_id": image_id, "deduplicated": True}:
                client.count(kind + ".answer", False, f"re-upload got {response.body}")
        return took

    def _annotate(self, client: Client, image_id: int, key: str, kind: str) -> None:
        i = self.row_of_id[image_id]
        label = LABELS[int(self.images.label[i])]
        confidence = float(self.images.confidence[i])
        response, _ = client.call(kind, "POST", f"/images/{image_id}/annotations",
                                  {"classification": CLASSIFICATION, "label": label,
                                   "confidence": confidence}, key)
        if client.expect(kind, response, 201):
            self.catalog.labels[image_id] = (label, confidence)

    def _features(self, client: Client, image_id: int, key: str, kind: str) -> float:
        response, took = client.call(kind, "POST", f"/features/{EXTRACTOR}",
                                     {"image_id": image_id}, key)
        if not client.expect(kind, response, 200):
            return took
        vector = np.asarray(response.body["vector"], dtype=np.float64)
        if vector.shape != (FEATURE_DIMENSION,) or not np.isfinite(vector).all():
            client.count(kind + ".answer", False, f"bad vector shape {vector.shape}")
        cached = self.catalog.vectors.get(image_id)
        if cached is not None and not np.array_equal(cached, vector):
            client.count(kind + ".answer", False, f"vector of {image_id} changed")
        self.catalog.add_vector(image_id, vector)
        return took

    def _resolve_vectors(self) -> None:
        """Swap vector tokens for the sample images' real vectors."""
        if getattr(self, "_resolved", False):
            return
        real = [self.catalog.vectors[int(j) + 1].tolist() for j in self.samples]

        def fix(spec: dict) -> None:
            if spec["type"] == "hybrid":
                for part in spec["queries"]:
                    fix(part)
            elif spec["type"] == "visual" and corpus.is_vector_token(spec["vector"]):
                spec["vector"] = real[int(-spec["vector"][0]) - 1]

        for spec in self.specs:
            fix(spec)
        self._resolved = True

    def _search(self, client: Client, spec: dict, key: str, kind: str,
                service: TVDPService | None = None) -> tuple[float, list | None]:
        response, took = client.call(kind, "POST", "/search", spec, key,
                                     family=spec["type"], service=service)
        if not client.expect(kind, response, 200):
            return took, None
        results = response.body["results"]
        verdict = truth.check_answer(self.catalog, spec, results)
        if not verdict.ok:
            client.count(kind + ".answer", False, f"{verdict.reason} for {spec}")
        return took, (results, verdict)

    def _next_spec(self) -> dict:
        spec = self.specs[self.cursor % len(self.specs)]
        self.cursor += 1
        return spec

    # -- the measured phase ---------------------------------------------------

    def warm_up(self) -> None:
        """Untimed: every key makes one request, so every principal's
        metric series exists before timing (as in a long-running
        server); lazily built index caches fill."""
        self._resolve_vectors()
        count = max(WARMUP_SEARCHES, len(self.keys))
        for n in range(count):
            self._search(self.client, self._next_spec(), self.keys[n % len(self.keys)],
                         "warmup.search")

    def measure(self) -> None:
        w, client = self.w, self.client
        self.first_measured_request = client.request_id + 1
        start = CLOCK()
        next_row = w.base_images
        # A program several times slower than the reference stops early
        # rather than overrun the run's time limit.
        while self.rounds < self.target_rounds and CLOCK() - start < 4 * self.seconds:
            gc.collect()
            self.rounds += 1
            self.marks.append((len(self.search_s), len(self.ingest_s), len(self.features_s)))
            for _ in range(w.searches_per_round):
                spec = self._next_spec()
                kind = "search." + spec["type"]
                took, outcome = self._search(client, spec, self.keys[self.cursor % len(self.keys)],
                                             kind)
                self.search_s.append(took)
                # Scene-mode region and visual answers carry recall.
                if outcome is not None and outcome[1].recall is not None:
                    self._tally_recall(outcome[1].family, *outcome[1].recall)
            self._ingest_burst(range(next_row, next_row + w.burst_new))
            next_row += w.burst_new
            last = self.rounds == self.target_rounds
            if self.rounds % w.snapshot_every == 0 or (last and not self.save_s):
                self.snapshot_cycle()
        self.measured_s = CLOCK() - start

    def _tally_recall(self, family: str, found: int, truth: int) -> None:
        tally = self.recall[family]
        if family == "visual":
            # Recall@k is averaged over queries, so the few max_distance
            # queries with many true neighbours do not outweigh the rest.
            if truth:
                tally[0] += found / truth
                tally[1] += 1
        else:
            tally[0] += found
            tally[1] += truth

    def _key(self) -> str:
        self.cursor += 1
        return self.keys[self.cursor % len(self.keys)]

    def _ingest_burst(self, rows: range) -> None:
        client = self.client
        first_id = len(self.catalog) + 1
        for i in rows:
            self.ingest_s.append(self._upload(client, i, self._key(), "images.fresh"))
        new_ids = list(range(first_id, len(self.catalog) + 1))
        for _ in range(self.w.burst_dup):
            self.ingest_s.append(
                self._reupload(client, self.rng.randrange(1, first_id), self._key())
            )
        for image_id in new_ids:
            self._annotate(client, image_id, self._key(), "annotate")
        for image_id in new_ids:
            self.features_s.append(
                self._features(client, image_id, self._key(), "features.fresh")
            )
        self._features(client, self.rng.randrange(1, first_id), self._key(), "features.cached")
        # Read-after-write: the first search after the burst must see it.
        spec = corpus.burst_region(self.images, rows)
        took, outcome = self._search(client, spec, self._key(), "search.read_after_write")
        self.raw_s.append(took)
        if outcome is not None:
            got = {r["image_id"] for r in outcome[0]}
            if not set(new_ids) <= got:
                client.count("search.read_after_write.answer", False,
                             f"burst {new_ids} missing from {sorted(got)[:10]}")

    def snapshot_cycle(self) -> None:
        """Save, load, and check the loaded platform on a probe set."""
        client = self.client
        target = os.path.join(self.workdir, "snapshot")
        shutil.rmtree(target, ignore_errors=True)
        start = CLOCK()
        try:
            persistence.save_platform(self.platform, target)
            saved = CLOCK()
            client.count("snapshot.save", True)
        except Exception as exc:  # noqa: BLE001 - a failed save is a failed operation
            client.count("snapshot.save", False, repr(exc))
            return
        sizes = {name: os.path.getsize(os.path.join(target, name)) for name in os.listdir(target)}
        stored = len(self.catalog)
        self.save_s.append(saved - start)
        self.snapshot_bytes.append(sum(sizes.values()) / stored)
        self.rows_bytes.append(sizes.get("db.json", 0) / stored)
        self.blobs_bytes.append(sizes.get("blobs.npz", 0) / stored)
        start = CLOCK()
        try:
            loaded = persistence.load_platform(target)
            self.load_s.append(CLOCK() - start)
            client.count("snapshot.load", True)
        except Exception as exc:  # noqa: BLE001 - a failed load is a failed operation
            client.count("snapshot.load", False, repr(exc))
            return
        try:
            loaded.register_extractor(ColorHistogramExtractor())
            self._probe(TVDPService(loaded, deterministic_keys=True))
        finally:
            loaded.close()
            shutil.rmtree(target, ignore_errors=True)

    def _probe(self, service: TVDPService) -> None:
        """Row counts, byte-identical pixels and the usual answer checks
        on the loaded platform."""
        client, key = self.client, self.keys[0]
        response, _ = client.call("snapshot.stats", "GET", "/stats", key=key, service=service)
        if client.expect("snapshot.stats", response, 200):
            n = len(self.catalog)
            expected = {
                "images": n, "image_fov": n, "image_scene_location": n,
                "image_manual_keywords": sum(len(k) for k in self.catalog.keywords),
                "image_content_annotation": len(self.catalog.labels),
                "image_visual_features": len(self.catalog.vectors),
                "api_keys": len(self.keys), "users": len(self.keys),
            }
            got = {table: response.body["rows"].get(table) for table in expected}
            if got != expected:
                client.count("snapshot.rows", False, f"{got} != {expected}")
        for image_id in (1, len(self.catalog), self.rng.randrange(1, len(self.catalog) + 1)):
            response, _ = client.call("snapshot.pixels", "GET", f"/images/{image_id}", key=key,
                                      params={"include_pixels": True}, service=service)
            if client.expect("snapshot.pixels", response, 200):
                pixels = np.asarray(response.body["image"]["pixels_u8"], dtype=np.uint8)
                if not np.array_equal(pixels, self.images.pixels[self.row_of_id[image_id]]):
                    client.count("snapshot.pixels.answer", False, f"pixels of {image_id}")
        for _ in range(PROBE_SEARCHES):
            self._search(client, self._next_spec(), key, "snapshot.search", service=service)

    # -- results ------------------------------------------------------------

    def close(self) -> None:
        """Release shard workers and wait until every child has ended."""
        platform = getattr(self, "platform", None)
        if platform is not None:
            platform.close()
        deadline = time.monotonic() + 60.0
        for child in multiprocessing.active_children():
            child.join(timeout=max(0.1, deadline - time.monotonic()))

    def mem_peak_mb(self) -> float:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.w.shards > 1:
            peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return peak_kb / 1024.0

    def _rate(self, seconds: list[float], column: int) -> float:
        """Operations completed per second of their own time in each
        round, averaged over the middle 60% of rounds (a slow spell of
        the host that covers a few rounds moves it little)."""
        bounds = [mark[column] for mark in self.marks] + [len(seconds)]
        rates = sorted(
            (hi - lo) / sum(seconds[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
        )
        cut = len(rates) // 5
        return statistics.fmean(rates[cut:len(rates) - cut])

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        search_ms = np.asarray(self.search_s) * 1000.0
        ingest_ms = np.asarray(self.ingest_s) * 1000.0
        visual, spatial = self.recall["visual"], self.recall["spatial"]
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "search_p50_ms": (float(np.percentile(search_ms, 50)), "ms"),
            "search_p99_ms": (float(np.percentile(search_ms, 99)), "ms"),
            "search_rps": (self._rate(self.search_s, 0), "req/s"),
            "read_after_write_ms": (statistics.median(self.raw_s) * 1000.0, "ms"),
            "ingest_ips": (self._rate(self.ingest_s, 1), "images/s"),
            "ingest_p99_ms": (float(np.percentile(ingest_ms, 99)), "ms"),
            "features_ips": (self._rate(self.features_s, 2), "images/s"),
            "snapshot_save_s": (statistics.median(self.save_s), "s"),
            "snapshot_load_s": (statistics.median(self.load_s), "s"),
            "snapshot_bytes_per_image": (statistics.median(self.snapshot_bytes), "bytes"),
            "mem_peak_mb": (self.mem_peak_mb(), "MB"),
            "visual_recall": (visual[0] / visual[1] if visual[1] else math.nan, "fraction"),
            "spatial_recall": (spatial[0] / spatial[1] if spatial[1] else math.nan, "fraction"),
        }

    def sample_counts(self) -> dict[str, int]:
        return {
            "searches": len(self.search_s), "read_after_write": len(self.raw_s),
            "uploads": len(self.ingest_s), "features": len(self.features_s),
            "snapshots": len(self.save_s), "rounds": self.rounds,
            "visual_queries": self.recall["visual"][1], "spatial_truth": self.recall["spatial"][1],
        }
