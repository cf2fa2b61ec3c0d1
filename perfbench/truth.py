"""Answers computed apart from the program, and the checks that use them.

Nothing here imports ``repro``: every expected answer is derived from
the records the benchmark itself uploaded (camera position, viewing
direction, angle, range, timestamps, keywords, labels, feature vectors)
with geometry written for this file.  The checks therefore catch a
predicate that is wrong in both the serial and the sharded path.

Geometry works in a local tangent plane centred on each camera
(equirectangular: metres east and north of the apex).  Over FOV ranges
of a few hundred metres the projection error is millimetres, far below
``MARGIN_M``; every spatial verdict is three-way (surely in, surely out,
too close to call) so a rounding difference never fails a check.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

EARTH_RADIUS_M = 6_371_008.8
M_PER_DEG = math.pi * EARTH_RADIUS_M / 180.0
#: Margin in metres within which a spatial verdict is left undecided.
MARGIN_M = 0.1
#: Angular margin in degrees for direction and bearing verdicts.
MARGIN_DEG = 1e-6
#: Relative tolerance for recomputed scores.
SCORE_RTOL = 1e-9

_TOKEN = re.compile(r"[a-z0-9]+")


# -- geometry -----------------------------------------------------------------


def haversine_m(lat1, lng1, lat2, lng2):
    """Great-circle distance in metres (vectorised over NumPy arrays)."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dlat = p2 - p1
    dlng = np.radians(lng2 - lng1)
    h = np.sin(dlat / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlng / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def bearing_deg(lat1, lng1, lat2, lng2):
    """Initial compass bearing from point 1 to point 2, in [0, 360)."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dlng = np.radians(lng2 - lng1)
    x = np.sin(dlng) * np.cos(p2)
    y = np.cos(p1) * np.sin(p2) - np.sin(p1) * np.cos(p2) * np.cos(dlng)
    return np.degrees(np.arctan2(x, y)) % 360.0


def angle_diff_deg(a, b):
    """Smallest absolute difference between two headings, in [0, 180]."""
    d = np.abs(np.asarray(a, dtype=np.float64) - b) % 360.0
    return np.minimum(d, 360.0 - d)


def _segment_hits_box(ax, ay, bx, by, x0, y0, x1, y1):
    """Liang-Barsky: does segment a->b meet the box [x0,x1]x[y0,y1]?"""
    dx, dy = bx - ax, by - ay
    t0 = np.zeros_like(ax)
    t1 = np.ones_like(ax)
    ok = np.ones(ax.shape, dtype=bool)
    for p, q in ((-dx, ax - x0), (dx, x1 - ax), (-dy, ay - y0), (dy, y1 - ay)):
        parallel = p == 0
        ok &= ~(parallel & (q < 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(parallel, 0.0, q / np.where(parallel, 1.0, p))
        t0 = np.where(~parallel & (p < 0), np.maximum(t0, r), t0)
        t1 = np.where(~parallel & (p > 0), np.minimum(t1, r), t1)
    return ok & (t0 <= t1)


def _in_sector(x, y, r, direction, half):
    """Planar point-in-sector test (apex at the origin)."""
    inside = x * x + y * y <= r * r
    theta = np.degrees(np.arctan2(x, y)) % 360.0
    return inside & ((angle_diff_deg(theta, direction) <= half) | ((x == 0) & (y == 0)))


def sector_meets_box(x0, y0, x1, y1, r, direction, half):
    """Exact planar sector-vs-rectangle intersection, vectorised.

    The apex is the origin; ``direction`` is a compass bearing (0 =
    +y, 90 = +x) and ``half`` the half-angle, both in degrees.  The two
    shapes meet iff the apex lies in the box, a box corner lies in the
    sector, a box edge crosses one of the sector's radii, or a box edge
    crosses the arc.
    """
    x0, y0, x1, y1, r, direction, half = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (x0, y0, x1, y1, r, direction, half))
    )
    hit = (x0 <= 0) & (0 <= x1) & (y0 <= 0) & (0 <= y1)
    for cx, cy in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
        hit |= _in_sector(cx, cy, r, direction, half)
    zero = np.zeros_like(r)
    for edge in (direction - half, direction + half):
        ex = r * np.sin(np.radians(edge))
        ey = r * np.cos(np.radians(edge))
        hit |= _segment_hits_box(zero, zero, ex, ey, x0, y0, x1, y1)
    # Arc crossings: each box edge line meets the circle in <= 2 points.
    for fixed, lo, hi, vertical in ((x0, y0, y1, True), (x1, y0, y1, True),
                                    (y0, x0, x1, False), (y1, x0, x1, False)):
        reach = r * r - fixed * fixed
        root = np.sqrt(np.maximum(reach, 0.0))
        for other in (root, -root):
            px, py = (fixed, other) if vertical else (other, fixed)
            theta = np.degrees(np.arctan2(px, py)) % 360.0
            hit |= (
                (reach >= 0)
                & (lo <= other) & (other <= hi)
                & (angle_diff_deg(theta, direction) <= half)
            )
    return hit


def _box_in_plane(lat, lng, box):
    """Box corners in metres relative to each apex (east, north)."""
    cos_lat = np.cos(np.radians(lat))
    x0 = (box["min_lng"] - lng) * cos_lat * M_PER_DEG
    x1 = (box["max_lng"] - lng) * cos_lat * M_PER_DEG
    y0 = (box["min_lat"] - lat) * M_PER_DEG
    y1 = (box["max_lat"] - lat) * M_PER_DEG
    return x0, y0, x1, y1


def scene_verdicts(cat: "Catalog", box: dict) -> tuple[np.ndarray, np.ndarray]:
    """``(surely_hit, surely_miss)`` masks over the catalog for the
    question "does this image's FOV sector meet ``box``?"."""
    x0, y0, x1, y1 = _box_in_plane(cat.lat, cat.lng, box)
    half = cat.angle / 2.0
    m = MARGIN_M
    shrunk_ok = (x1 - x0 > 2 * m) & (y1 - y0 > 2 * m)
    surely_hit = shrunk_ok & sector_meets_box(
        x0 + m, y0 + m, x1 - m, y1 - m, np.maximum(cat.range_m - m, 0.0), cat.direction, half
    )
    surely_miss = ~sector_meets_box(
        x0 - m, y0 - m, x1 + m, y1 + m, cat.range_m + m, cat.direction, half + MARGIN_DEG
    )
    return surely_hit, surely_miss


def point_verdicts(cat: "Catalog", lat: float, lng: float) -> tuple[np.ndarray, np.ndarray]:
    """``(surely_in, surely_out)`` masks for "does this FOV contain the
    point?" by haversine distance and initial bearing."""
    dist = haversine_m(cat.lat, cat.lng, lat, lng)
    with np.errstate(invalid="ignore"):
        off = angle_diff_deg(bearing_deg(cat.lat, cat.lng, lat, lng), cat.direction)
    half = cat.angle / 2.0
    # Bearing is ill-conditioned very close to the apex; a point within
    # the margin of the camera counts as depicted either way.
    near_apex = dist <= MARGIN_M
    surely_in = near_apex | ((dist <= cat.range_m - MARGIN_M) & (off <= half - MARGIN_DEG))
    surely_out = ~near_apex & ((dist > cat.range_m + MARGIN_M) | (off > half + MARGIN_DEG))
    return surely_in, surely_out


def camera_verdicts(cat: "Catalog", box: dict) -> tuple[np.ndarray, np.ndarray]:
    """``(surely_in, surely_out)`` for "is the camera inside ``box``?"
    (the box is inclusive; 1e-12 degrees either side is undecided)."""
    eps = 1e-12
    inside = (
        (cat.lat >= box["min_lat"] + eps) & (cat.lat <= box["max_lat"] - eps)
        & (cat.lng >= box["min_lng"] + eps) & (cat.lng <= box["max_lng"] - eps)
    )
    outside = (
        (cat.lat < box["min_lat"] - eps) | (cat.lat > box["max_lat"] + eps)
        | (cat.lng < box["min_lng"] - eps) | (cat.lng > box["max_lng"] + eps)
    )
    return inside, outside


def direction_verdicts(cat: "Catalog", bearing: float, tolerance: float):
    """``(surely_match, surely_not)`` for the viewing-direction filter."""
    off = angle_diff_deg(cat.direction, bearing)
    return off <= tolerance - MARGIN_DEG, off > tolerance + MARGIN_DEG


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens (the vocabulary holds no stopwords)."""
    return _TOKEN.findall(text.lower())


# -- the benchmark's own record of what it stored ------------------------------


@dataclass
class Catalog:
    """Everything the benchmark uploaded, as parallel arrays indexed by
    image id (row ``i`` is image id ``i + 1``; ids are dense because the
    platform allocates them in upload order)."""

    lat: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lng: np.ndarray = field(default_factory=lambda: np.zeros(0))
    direction: np.ndarray = field(default_factory=lambda: np.zeros(0))
    angle: np.ndarray = field(default_factory=lambda: np.zeros(0))
    range_m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    captured: np.ndarray = field(default_factory=lambda: np.zeros(0))
    keywords: list = field(default_factory=list)
    #: image id -> (label, confidence) of its one annotation
    labels: dict = field(default_factory=dict)
    #: image id -> feature vector returned by ``POST /features``
    vectors: dict = field(default_factory=dict)
    _stacked: tuple | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return int(self.lat.shape[0])

    def add(self, lat, lng, direction, angle, range_m, captured, keywords) -> int:
        """Record one stored image; returns the id it must have been given."""
        self.lat = np.append(self.lat, lat)
        self.lng = np.append(self.lng, lng)
        self.direction = np.append(self.direction, direction)
        self.angle = np.append(self.angle, angle)
        self.range_m = np.append(self.range_m, range_m)
        self.captured = np.append(self.captured, captured)
        self.keywords.append(frozenset(keywords))
        return len(self)

    def ids(self, mask: np.ndarray) -> set:
        return set((np.flatnonzero(mask) + 1).tolist())

    def add_vector(self, image_id: int, vector: np.ndarray) -> None:
        self.vectors[image_id] = vector
        self._stacked = None

    def matrix(self) -> tuple[list, np.ndarray]:
        """Ids with a feature vector, and those vectors stacked."""
        if self._stacked is None:
            ids = sorted(self.vectors)
            stacked = np.vstack([self.vectors[i] for i in ids]) if ids else np.zeros((0, 0))
            self._stacked = (ids, stacked)
        return self._stacked


# -- answer checks --------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of checking one answer."""

    ok: bool = True
    reason: str = ""
    #: (true hits returned, true hits) for recall families
    recall: tuple | None = None
    family: str = ""

    def fail(self, reason: str) -> "Verdict":
        self.ok = False
        self.reason = reason
        return self


def _ids(results: list) -> list:
    return [r["image_id"] for r in results]


def check_answer(cat: Catalog, spec: dict, results: list) -> Verdict:
    """Check one ``POST /search`` answer against the independent truth."""
    kind = spec["type"]
    if kind == "spatial":
        return _check_spatial(cat, spec, results)
    if kind == "visual":
        return _check_visual(cat, spec, results)
    if kind == "categorical":
        return _check_categorical(cat, spec, results)
    if kind == "textual":
        return _check_textual(cat, spec, results)
    if kind == "temporal":
        return _check_temporal(cat, spec, results)
    if kind == "hybrid":
        return _check_hybrid(cat, spec, results)
    return Verdict().fail(f"unknown query type {kind!r}")


def _exact(verdict: Verdict, got: set, surely_in: np.ndarray, surely_out: np.ndarray,
           cat: Catalog) -> Verdict:
    missing = cat.ids(surely_in) - got
    extra = got & cat.ids(surely_out)
    unknown = got - set(range(1, len(cat) + 1))
    if missing or extra or unknown:
        return verdict.fail(
            f"missing {sorted(missing)[:5]} extra {sorted(extra | unknown)[:5]}"
        )
    return verdict


def _check_spatial(cat: Catalog, spec: dict, results: list) -> Verdict:
    ids = _ids(results)
    v = Verdict(family="spatial")
    if ids != sorted(set(ids)):
        return v.fail("spatial ids not ascending and distinct")
    got = set(ids)
    mode = spec.get("mode", "scene")
    if "point" in spec:
        box = None
        surely_in, surely_out = point_verdicts(cat, spec["point"]["lat"], spec["point"]["lng"])
    else:
        box = spec["region"]
        if mode == "camera":
            surely_in, surely_out = camera_verdicts(cat, box)
        else:
            surely_in, surely_out = scene_verdicts(cat, box)
    if spec.get("direction_deg") is not None:
        match, mismatch = direction_verdicts(
            cat, spec["direction_deg"], spec.get("direction_tolerance_deg", 45.0)
        )
        surely_in = surely_in & match
        surely_out = surely_out | mismatch
    if box is not None and mode == "scene":
        # Scene mode may miss true hits (it is judged by recall); an
        # answer that is provably disjoint is wrong.
        extra = got & cat.ids(surely_out)
        if extra or got - set(range(1, len(cat) + 1)):
            return v.fail(f"scene answer holds disjoint images {sorted(extra)[:5]}")
        truth = cat.ids(surely_in)
        v.recall = (len(truth & got), len(truth))
        return v
    return _exact(v, got, surely_in, surely_out, cat)


def _check_ranked_scores(v: Verdict, results: list, distances: dict,
                         max_distance: float | None) -> Verdict:
    previous = -math.inf
    for r in results:
        d = distances.get(r["image_id"])
        if d is None:
            return v.fail(f"image {r['image_id']} has no stored vector")
        if not math.isclose(r["score"], 1.0 / (1.0 + d), rel_tol=SCORE_RTOL):
            return v.fail(f"score {r['score']} != 1/(1+{d})")
        if d < previous - 1e-12:
            return v.fail("distances not ascending")
        if max_distance is not None and d > max_distance + 1e-12:
            return v.fail(f"distance {d} beyond max_distance {max_distance}")
        previous = d
    return v


def _distances(cat: Catalog, vector: list) -> dict:
    ids, matrix = cat.matrix()
    if not ids:
        return {}
    d = np.linalg.norm(matrix - np.asarray(vector, dtype=np.float64), axis=1)
    return dict(zip(ids, d.tolist()))


def _true_topk(distances: dict, k: int, max_distance: float | None) -> tuple[list, float]:
    """Ids of the true top-``k`` and the k-th distance (ties inclusive)."""
    items = sorted(distances.items(), key=lambda p: (p[1], p[0]))
    if max_distance is not None:
        items = [p for p in items if p[1] <= max_distance]
    top = items[:k]
    return [i for i, _ in top], (top[-1][1] if top else -math.inf)


def _check_visual(cat: Catalog, spec: dict, results: list) -> Verdict:
    v = Verdict(family="visual")
    k = spec.get("k", 10)
    if len(results) > k:
        return v.fail(f"{len(results)} results for k={k}")
    distances = _distances(cat, spec["vector"])
    max_distance = spec.get("max_distance")
    if not _check_ranked_scores(v, results, distances, max_distance).ok:
        return v
    truth, kth = _true_topk(distances, k, max_distance)
    got = set(_ids(results))
    # A returned id at exactly the k-th distance is a tie, not a miss.
    hits = sum(1 for i in truth if i in got) + sum(
        1 for i in got - set(truth) if distances[i] <= kth + 1e-12
    )
    v.recall = (min(hits, len(truth)), len(truth))
    return v


def _check_hybrid(cat: Catalog, spec: dict, results: list) -> Verdict:
    """Spatial-visual hybrid: the exact top-``k`` among images whose
    camera lies in the region, then the ``max_distance`` filter."""
    v = Verdict(family="hybrid")
    spatial = next(q for q in spec["queries"] if q["type"] == "spatial")
    visual = next(q for q in spec["queries"] if q["type"] == "visual")
    k = visual.get("k", 10)
    _, outside = camera_verdicts(cat, spatial["region"])
    distances = _distances(cat, visual["vector"])
    max_distance = visual.get("max_distance")
    if not _check_ranked_scores(v, results, distances, max_distance).ok:
        return v
    members = {i: d for i, d in distances.items() if not outside[i - 1]}
    truth, kth = _true_topk(members, k, None)
    expected = [i for i in truth if max_distance is None or members[i] <= max_distance]
    got = _ids(results)
    if len(got) != len(expected):
        return v.fail(f"hybrid returned {len(got)} results, expected {len(expected)}")
    for i in got:
        if i not in members or members[i] > kth + 1e-12:
            return v.fail(f"hybrid image {i} is not among the region's top-{k}")
    return v


def _check_categorical(cat: Catalog, spec: dict, results: list) -> Verdict:
    v = Verdict(family="categorical")
    wanted = set(spec["labels"])
    floor = spec.get("min_confidence", 0.0)
    expected = {
        i: conf for i, (label, conf) in cat.labels.items()
        if label in wanted and conf >= floor
    }
    got = {r["image_id"]: r["score"] for r in results}
    if _ids(results) != sorted(got):
        return v.fail("categorical ids not ascending")
    if set(got) != set(expected):
        return v.fail(f"categorical set differs by {sorted(set(got) ^ set(expected))[:5]}")
    if any(not math.isclose(got[i], expected[i], rel_tol=SCORE_RTOL) for i in got):
        return v.fail("categorical confidence differs")
    return v


def _check_textual(cat: Catalog, spec: dict, results: list) -> Verdict:
    v = Verdict(family="textual")
    terms = set(tokenize(spec["text"]))
    if spec.get("match", "any") == "all":
        expected = {i + 1 for i, kw in enumerate(cat.keywords) if terms and terms <= kw}
    else:
        expected = {i + 1 for i, kw in enumerate(cat.keywords) if terms & kw}
    got = _ids(results)
    if len(got) != len(set(got)) or set(got) != expected:
        return v.fail(f"textual set differs by {sorted(set(got) ^ expected)[:5]}")
    scores = [r["score"] for r in results]
    if any(b > a for a, b in zip(scores, scores[1:])) or any(s <= 0 for s in scores):
        return v.fail("textual scores increase down the list")
    return v


def _check_temporal(cat: Catalog, spec: dict, results: list) -> Verdict:
    v = Verdict(family="temporal")
    lo = spec.get("start", -math.inf)
    hi = spec.get("end", math.inf)
    got = _ids(results)
    if got != sorted(set(got)):
        return v.fail("temporal ids not ascending")
    inside = (cat.captured > lo) & (cat.captured < hi)
    outside = (cat.captured < lo) | (cat.captured > hi)
    return _exact(v, set(got), inside, outside, cat)
