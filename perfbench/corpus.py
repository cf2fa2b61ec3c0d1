"""Seeded inputs for the workloads, generated before any clock starts.

Images, FOVs, timestamps, labels and keywords are compact NumPy arrays;
request bodies are built from them one at a time, outside the timed
calls.  The dashboard mix reuses the seeded zipfian spec builders of
``benchmarks/loadgen.py``; the street mix is built here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from benchmarks import loadgen

from perfbench.truth import M_PER_DEG

#: Classification every workload defines (the loadgen categorical
#: builder queries it by this name).
CLASSIFICATION = "street_cleanliness"
LABELS = ("bulky_item", "illegal_dumping", "encampment", "overgrown_vegetation", "clean")
#: Keyword vocabulary: plain words, none of them a stopword.
VOCABULARY = (
    "bulky", "couch", "mattress", "dumping", "trash", "bags", "debris", "tent",
    "encampment", "vegetation", "weeds", "clean", "sidewalk", "graffiti",
)
EXTRACTOR = loadgen.EXTRACTOR_NAME
#: South-west corner of the synthetic city (downtown Los Angeles).
ORIGIN_LAT, ORIGIN_LNG = 34.035, -118.265
EPOCH = 1_525_000_000.0
#: Side of the square city, street spacing, image side (pixels), and the
#: number of sample images whose vectors seed the visual queries.
EXTENT_M = 2000.0
BLOCK_M = 100.0
IMAGE_SIZE = 32
QUERY_VECTORS = 64


@dataclass
class Images:
    """``n`` images as parallel arrays (row ``i`` is the ``i``-th upload)."""

    pixels: np.ndarray  # (n, size, size, 3) uint8
    lat: np.ndarray
    lng: np.ndarray
    direction: np.ndarray
    angle: np.ndarray
    range_m: np.ndarray
    captured: np.ndarray
    uploaded: np.ndarray
    label: np.ndarray  # index into LABELS
    confidence: np.ndarray
    keywords: np.ndarray  # (n, len(VOCABULARY)) bool

    def words(self, i: int) -> tuple[str, ...]:
        return tuple(w for w, on in zip(VOCABULARY, self.keywords[i]) if on)

    def fov(self, i: int) -> dict:
        return {
            "lat": float(self.lat[i]), "lng": float(self.lng[i]),
            "direction_deg": float(self.direction[i]),
            "angle_deg": float(self.angle[i]), "range_m": float(self.range_m[i]),
        }

    def upload_body(self, i: int) -> dict:
        return {
            "image": {"pixels_u8": self.pixels[i].tolist()},
            "fov": self.fov(i),
            "captured_at": float(self.captured[i]),
            "uploaded_at": float(self.uploaded[i]),
            "keywords": list(self.words(i)),
        }


def _pixels(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Two-colour gradients plus noise: distinct content hashes and
    colour histograms that spread over the feature space."""
    c1 = rng.integers(0, 256, (n, 1, 1, 3))
    c2 = rng.integers(0, 256, (n, 1, 1, 3))
    angle = rng.uniform(0, 2 * math.pi, (n, 1, 1, 1))
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    t = (np.cos(angle) * xx[None, :, :, None] + np.sin(angle) * yy[None, :, :, None])
    t = (t - t.min(axis=(1, 2), keepdims=True)) / np.ptp(t, axis=(1, 2), keepdims=True).clip(1e-9)
    noise = rng.integers(-24, 25, (n, size, size, 3))
    return np.clip(c1 * (1 - t) + c2 * t + noise, 0, 255).astype(np.uint8)


def _attributes(rng, lat, lng, direction, start_s: float) -> Images:
    n = lat.shape[0]
    captured = start_s + np.sort(rng.uniform(0, 7 * 86_400.0, n))
    keywords = rng.random((n, len(VOCABULARY))) < 0.18
    keywords[np.arange(n), rng.integers(0, len(VOCABULARY), n)] = True
    return Images(
        pixels=np.zeros((n, 1, 1, 3), dtype=np.uint8),
        lat=lat, lng=lng, direction=direction % 360.0,
        angle=rng.uniform(50.0, 70.0, n), range_m=rng.uniform(80.0, 200.0, n),
        captured=captured, uploaded=captured + rng.uniform(60.0, 3600.0, n),
        label=rng.integers(0, len(LABELS), n),
        confidence=np.round(rng.uniform(0.3, 1.0, n), 3),
        keywords=keywords,
    )


def _offset(north_m, east_m):
    lat = ORIGIN_LAT + north_m / M_PER_DEG
    return lat, ORIGIN_LNG + east_m / (M_PER_DEG * np.cos(np.radians(ORIGIN_LAT)))


def city_images(rng: np.random.Generator, n: int, burst: int = 0) -> Images:
    """Cameras over a square city.  With ``burst`` > 0, consecutive runs
    of ``burst`` images sit within 150 m of a shared centre (one crew
    uploading one street's photos)."""
    if burst:
        centres = rng.uniform(150, EXTENT_M - 150, (math.ceil(n / burst), 2))
        north = np.repeat(centres[:, 0], burst)[:n] + rng.uniform(-150, 150, n)
        east = np.repeat(centres[:, 1], burst)[:n] + rng.uniform(-150, 150, n)
    else:
        north, east = rng.uniform(0, EXTENT_M, n), rng.uniform(0, EXTENT_M, n)
    lat, lng = _offset(north, east)
    images = _attributes(rng, lat, lng, rng.uniform(0, 360, n), EPOCH)
    images.pixels = _pixels(rng, n, IMAGE_SIZE)
    return images


def street_images(rng: np.random.Generator, n: int, burst: int = 0) -> Images:
    """Cameras on a street grid (streets every ``BLOCK_M``), a few metres
    off the centre line, most looking along the street."""
    streets = int(EXTENT_M // BLOCK_M) + 1
    street = rng.integers(0, streets, n) * BLOCK_M
    along = rng.uniform(0, EXTENT_M, n)
    if burst:
        # A burst walks one stretch of one street.
        groups = math.ceil(n / burst)
        street = np.repeat(rng.integers(0, streets, groups) * BLOCK_M, burst)[:n]
        start = np.repeat(rng.uniform(0, EXTENT_M - 200, groups), burst)[:n]
        along = start + rng.uniform(0, 200, n)
    lateral = rng.uniform(-6, 6, n)
    east_west = rng.random(n) < 0.5
    north = np.where(east_west, street + lateral, along)
    east = np.where(east_west, along, street + lateral)
    axis = np.where(east_west, 90.0, 0.0) + 180.0 * (rng.random(n) < 0.5)
    looks_along = rng.random(n) < 0.7
    direction = np.where(looks_along, axis + rng.normal(0, 12, n), rng.uniform(0, 360, n))
    lat, lng = _offset(north, east)
    images = _attributes(rng, lat, lng, direction, EPOCH)
    images.pixels = _pixels(rng, n, IMAGE_SIZE)
    return images


def join(a: Images, b: Images) -> Images:
    """Concatenate two image sets (base catalog, then ingest pool)."""
    return Images(**{
        name: np.concatenate([getattr(a, name), getattr(b, name)])
        for name in Images.__dataclass_fields__
    })


# -- search specs ---------------------------------------------------------------


def vector_token(j: int) -> tuple[float, ...]:
    """Placeholder for "the feature vector of sample image ``j``"; the
    workload swaps in the real vector once setup has computed it."""
    return (float(-1 - j),)


def is_vector_token(vector: list) -> bool:
    return len(vector) == 1 and vector[0] < 0


def dashboard_specs(images: Images, seed: int, count: int) -> list[dict]:
    """The zipfian six-family mix of ``benchmarks/loadgen.py`` over the
    base catalog (visual vectors are tokens of the sample images)."""
    profile = loadgen.CorpusProfile(
        min_lat=float(images.lat.min()), min_lng=float(images.lng.min()),
        max_lat=float(images.lat.max()), max_lng=float(images.lng.max()),
        t_min=float(images.captured.min()), t_max=float(images.captured.max()),
        labels=LABELS, keywords=VOCABULARY,
        vectors=tuple(vector_token(j) for j in range(QUERY_VECTORS)),
    )
    config = loadgen.LoadConfig(seed=seed, stages=(1,), requests_per_worker=count)
    return loadgen.build_schedule(profile, config)[0][0]


def _box(north0, east0, north1, east1) -> dict:
    (lat0, lat1), (lng0, lng1) = _offset(np.array([north0, north1]), np.array([east0, east1]))
    return {"min_lat": round(float(lat0), 7), "min_lng": round(float(lng0), 7),
            "max_lat": round(float(lat1), 7), "max_lng": round(float(lng1), 7)}


#: Street-mix shares.  No trace or source gives a street query
#: distribution; these are chosen so each layer metric of the sharded run
#: gets enough samples (reasons per share in perfbench/README.md).
STREET_MIX = (
    ("strip", 0.30), ("point", 0.20), ("directed_range", 0.15),
    ("camera", 0.15), ("hybrid", 0.15), ("visual", 0.05),
)


def street_specs(seed: int, count: int) -> list[dict]:
    """Spatial-heavy street mix: thin strips along streets, "which images
    depict this spot" points, direction-filtered ranges, camera-mode
    ranges, spatial-visual hybrids and a few plain visual queries."""
    rng = random.Random(seed)
    streets = int(EXTENT_M // BLOCK_M) + 1
    kinds = [k for k, _ in STREET_MIX]
    weights = [w for _, w in STREET_MIX]
    specs = []
    for kind in rng.choices(kinds, weights=weights, k=count):
        if kind == "strip":
            line = rng.randrange(streets) * BLOCK_M + rng.uniform(-8, 8)
            # 1 km strips from 1 to 20 m wide span the two strip classes
            # of the FOV-sampling evidence in ROADMAP.md (1-2 m, 5-20 m).
            width = rng.uniform(1.0, 20.0)
            start = rng.uniform(0, EXTENT_M - 1000.0)
            lo, hi = line - width / 2, line + width / 2
            box = (_box(lo, start, hi, start + 1000.0) if rng.random() < 0.5
                   else _box(start, lo, start + 1000.0, hi))
            spec = {"type": "spatial", "region": box, "mode": "scene"}
            if rng.random() < 0.2:
                spec["direction_deg"] = float(rng.randrange(0, 360, 90))
        elif kind == "point":
            north, east = rng.uniform(0, EXTENT_M), rng.randrange(streets) * BLOCK_M
            if rng.random() < 0.5:
                north, east = east, north
            lat, lng = _offset(np.array(north + rng.uniform(-10, 10)), np.array(east))
            spec = {"type": "spatial", "point": {"lat": round(float(lat), 7),
                                                 "lng": round(float(lng), 7)},
                    "radius_m": 0.0, "mode": "scene"}
            if rng.random() < 0.3:
                spec["direction_deg"] = float(rng.randrange(0, 360, 45))
        elif kind in ("directed_range", "camera"):
            side = rng.uniform(100, 300) if kind == "directed_range" else rng.uniform(200, 500)
            north, east = rng.uniform(0, EXTENT_M - side), rng.uniform(0, EXTENT_M - side)
            spec = {"type": "spatial", "region": _box(north, east, north + side, east + side),
                    "mode": "scene" if kind == "directed_range" else "camera"}
            if kind == "directed_range" or rng.random() < 0.3:
                spec["direction_deg"] = float(rng.randrange(0, 360, 45))
                spec["direction_tolerance_deg"] = float(rng.choice((30, 45)))
        else:
            visual = {"type": "visual", "extractor": EXTRACTOR,
                      "vector": list(vector_token(rng.randrange(QUERY_VECTORS))),
                      "k": rng.choice((5, 10))}
            if kind == "visual":
                if rng.random() < 0.2:
                    visual["max_distance"] = round(0.5 + rng.random(), 3)
                spec = visual
            else:
                side = rng.uniform(300, 800)
                north, east = rng.uniform(0, EXTENT_M - side), rng.uniform(0, EXTENT_M - side)
                spec = {"type": "hybrid", "queries": [
                    {"type": "spatial", "region": _box(north, east, north + side, east + side),
                     "mode": "scene"},
                    visual,
                ]}
        specs.append(spec)
    return specs


def burst_region(images: Images, rows: range) -> dict:
    """Camera-mode box around one burst's cameras (1 m of slack), for
    the read-after-write probe."""
    pad = 1.0 / M_PER_DEG
    lat, lng = images.lat[rows.start:rows.stop], images.lng[rows.start:rows.stop]
    pad_lng = pad / math.cos(math.radians(float(lat.mean())))
    return {"type": "spatial", "mode": "camera", "region": {
        "min_lat": float(lat.min()) - pad, "min_lng": float(lng.min()) - pad_lng,
        "max_lat": float(lat.max()) + pad, "max_lng": float(lng.max()) + pad_lng,
    }}
