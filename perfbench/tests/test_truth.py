"""Unit tests of the benchmark's independent answer checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import math

import numpy as np
import pytest

from perfbench import truth
from perfbench.truth import M_PER_DEG, Catalog, check_answer, sector_meets_box

LAT0, LNG0 = 34.05, -118.25


def _meets(box, r=100.0, direction=0.0, half=30.0):
    return bool(sector_meets_box(*box, r, direction, half))


class TestSectorMeetsBox:
    def test_apex_inside_box(self):
        assert _meets((-1, -1, 1, 1))

    def test_far_box(self):
        assert not _meets((500, 500, 600, 600))

    def test_thin_strip_across_the_sector(self):
        # A 0.5 m strip through the middle of the sector, no corner inside.
        assert _meets((-1000, 50, 1000, 50.5))
        assert not _meets((-1000, 150, 1000, 151))

    def test_box_beside_the_sector(self):
        assert not _meets((60, 0, 70, 10))

    def test_arc_crossing_only(self):
        assert _meets((-1, 99.5, 1, 120))

    def test_strips_with_every_corner_outside(self):
        # Just past the apex, and lengthwise through radius and arc.
        assert _meets((-100, 1, 100, 1.2))
        assert _meets((10, -500, 10.4, 500))
        assert not _meets((60, -500, 60.4, 500))

    def test_wide_sector(self):
        assert _meets((-10, -60, 10, -50), half=170.0)
        assert not _meets((-10, -60, 10, -50), half=90.0)

    def test_against_dense_sampling(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            r, direction, half = rng.uniform(50, 200), rng.uniform(0, 360), rng.uniform(10, 60)
            cx, cy = rng.uniform(-250, 250, 2)
            w, h = rng.choice([0.5, 3, 30, 300]), rng.uniform(0.5, 300)
            box = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
            radii = np.linspace(0, r, 600)[:, None]
            bearings = np.radians(np.linspace(direction - half, direction + half, 600))[None, :]
            px, py = radii * np.sin(bearings), radii * np.cos(bearings)
            sampled = bool(((px >= box[0]) & (px <= box[2]) & (py >= box[1]) & (py <= box[3])).any())
            exact = _meets(box, r, direction, half)
            if sampled:
                assert exact, (box, r, direction, half)
            if exact:
                # The sampling step is under 1 m, so a grown box must see a sample.
                grown = (box[0] - 1, box[1] - 1, box[2] + 1, box[3] + 1)
                assert ((px >= grown[0]) & (px <= grown[2])
                        & (py >= grown[1]) & (py <= grown[3])).any()


def _catalog(*fovs):
    """Catalog of FOVs given as (east_m, north_m, direction, angle, range)."""
    cat = Catalog()
    for n, (east, north, direction, angle, range_m) in enumerate(fovs):
        lat = LAT0 + north / M_PER_DEG
        lng = LNG0 + east / (M_PER_DEG * math.cos(math.radians(LAT0)))
        cat.add(lat, lng, direction, angle, range_m, 1000.0 + n, ("w%d" % n,))
    return cat


def _box(e0, n0, e1, n1):
    scale = M_PER_DEG * math.cos(math.radians(LAT0))
    return {"min_lat": LAT0 + n0 / M_PER_DEG, "max_lat": LAT0 + n1 / M_PER_DEG,
            "min_lng": LNG0 + e0 / scale, "max_lng": LNG0 + e1 / scale}


def _results(ids, scores=None):
    return [{"image_id": i, "score": 0.0 if scores is None else s}
            for i, s in zip(ids, scores or [0.0] * len(ids))]


class TestSpatialChecks:
    def setup_method(self):
        # 1 looks north from the origin; 2 looks south from 300 m east.
        self.cat = _catalog((0, 0, 0.0, 60.0, 100.0), (300, 0, 180.0, 60.0, 100.0))
        self.strip = _box(-500, 50, 500, 51)

    def test_scene_recall_and_disjoint(self):
        spec = {"type": "spatial", "region": self.strip, "mode": "scene"}
        assert check_answer(self.cat, spec, _results([1])).recall == (1, 1)
        assert check_answer(self.cat, spec, _results([])).recall == (0, 1)
        assert not check_answer(self.cat, spec, _results([1, 2])).ok

    def test_camera_mode_is_exact(self):
        spec = {"type": "spatial", "region": _box(-10, -10, 10, 10), "mode": "camera"}
        assert check_answer(self.cat, spec, _results([1])).ok
        assert not check_answer(self.cat, spec, _results([])).ok
        assert not check_answer(self.cat, spec, _results([1, 2])).ok

    def test_direction_filter(self):
        spec = {"type": "spatial", "region": _box(-400, -400, 400, 400), "mode": "camera",
                "direction_deg": 180.0, "direction_tolerance_deg": 45.0}
        assert check_answer(self.cat, spec, _results([2])).ok
        assert not check_answer(self.cat, spec, _results([1, 2])).ok

    def test_point_query(self):
        north = 50.0 / M_PER_DEG
        spec = {"type": "spatial", "point": {"lat": LAT0 + north, "lng": LNG0},
                "radius_m": 0.0, "mode": "scene"}
        assert check_answer(self.cat, spec, _results([1])).ok
        assert not check_answer(self.cat, spec, _results([])).ok
        assert not check_answer(self.cat, spec, _results([1, 2])).ok

    def test_haversine_and_bearing(self):
        assert truth.haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(M_PER_DEG)
        assert truth.bearing_deg(0.0, 0.0, 0.0, 1.0) == pytest.approx(90.0)
        assert truth.angle_diff_deg(350.0, 10.0) == pytest.approx(20.0)


class TestOtherFamilies:
    def setup_method(self):
        self.cat = _catalog((0, 0, 0, 60, 100), (10, 0, 0, 60, 100), (2000, 0, 0, 60, 100))
        self.cat.keywords = [frozenset({"trash", "tent"}), frozenset({"trash"}),
                             frozenset({"clean"})]
        self.cat.labels = {1: ("clean", 0.9), 2: ("encampment", 0.4), 3: ("clean", 0.2)}
        for i, v in ((1, [0.0, 0.0]), (2, [1.0, 0.0]), (3, [3.0, 0.0])):
            self.cat.add_vector(i, np.array(v))

    def test_visual_scores_order_and_recall(self):
        spec = {"type": "visual", "vector": [0.0, 0.0], "k": 2}
        good = _results([1, 2], [1.0, 0.5])
        assert check_answer(self.cat, spec, good).recall == (2, 2)
        assert check_answer(self.cat, spec, _results([1, 3], [1.0, 0.25])).recall == (1, 2)
        assert not check_answer(self.cat, spec, _results([1, 2], [1.0, 0.6])).ok
        assert not check_answer(self.cat, spec, _results([2, 1], [0.5, 1.0])).ok
        radius = dict(spec, max_distance=0.5)
        assert not check_answer(self.cat, radius, good).ok

    def test_hybrid_top_k_within_region(self):
        spec = {"type": "hybrid", "queries": [
            {"type": "spatial", "region": _box(-50, -50, 50, 50), "mode": "scene"},
            {"type": "visual", "vector": [3.0, 0.0], "k": 1},
        ]}
        assert check_answer(self.cat, spec, _results([2], [1 / 3])).ok
        assert not check_answer(self.cat, spec, _results([3], [1.0])).ok
        assert not check_answer(self.cat, spec, _results([1], [0.25])).ok

    def test_categorical(self):
        spec = {"type": "categorical", "labels": ["clean"], "min_confidence": 0.5}
        assert check_answer(self.cat, spec, _results([1], [0.9])).ok
        assert not check_answer(self.cat, spec, _results([1, 3], [0.9, 0.2])).ok

    def test_textual_any_all_and_order(self):
        any_spec = {"type": "textual", "text": "trash tent", "match": "any"}
        assert check_answer(self.cat, any_spec, _results([1, 2], [2.0, 1.0])).ok
        assert not check_answer(self.cat, any_spec, _results([1, 2], [1.0, 2.0])).ok
        all_spec = dict(any_spec, match="all")
        assert check_answer(self.cat, all_spec, _results([1], [2.0])).ok
        assert not check_answer(self.cat, all_spec, _results([1, 2], [2.0, 1.0])).ok

    def test_temporal(self):
        spec = {"type": "temporal", "start": 1000.5, "end": 1002.5}
        assert check_answer(self.cat, spec, _results([2, 3])).ok
        assert not check_answer(self.cat, spec, _results([3])).ok
