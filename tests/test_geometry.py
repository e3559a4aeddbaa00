import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from interactdiff.errors import ContractError
from interactdiff.geometry import BoundingBox, between, fourier_embed, iou

from oracles import between_bruteforce, bounding_hull, box_contains, iou_bruteforce


def boxes(draw):
    x = sorted(draw(st.tuples(st.floats(0, 1), st.floats(0, 1))))
    y = sorted(draw(st.tuples(st.floats(0, 1), st.floats(0, 1))))
    return BoundingBox(x[0], y[0], x[1], y[1])


box_strategy = st.composite(boxes)()


class TestBetween:
    def test_same_box_identity(self):
        b = BoundingBox(0.1, 0.2, 0.6, 0.9)
        assert between(b, b) == b

    def test_gap_region(self):
        bs = BoundingBox(0.0, 0.0, 0.25, 0.25)
        bo = BoundingBox(0.5, 0.5, 0.75, 0.75)
        assert between(bs, bo) == BoundingBox(0.25, 0.25, 0.5, 0.5)

    def test_nested_returns_inner(self):
        bs = BoundingBox(0.0, 0.0, 1.0, 1.0)
        bo = BoundingBox(0.25, 0.25, 0.5, 0.5)
        assert between(bs, bo) == bo

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            a = _random_box(rng)
            b = _random_box(rng)
            got = between(a, b)
            expect = between_bruteforce(a.as_list(), b.as_list())
            assert got.as_list() == list(expect)

    @given(box_strategy, box_strategy)
    def test_symmetric(self, a, b):
        assert between(a, b) == between(b, a)

    @given(box_strategy, box_strategy)
    def test_contained_in_hull(self, a, b):
        assert box_contains(bounding_hull(a, b), between(a, b))

    def test_disjoint_axis_gives_gap_interval(self):
        a = BoundingBox(0.0, 0.1, 0.2, 0.5)
        b = BoundingBox(0.6, 0.2, 0.9, 0.4)
        mid = between(a, b)
        assert (mid.x_min, mid.x_max) == (0.2, 0.6)


def _random_box(rng):
    x = np.sort(rng.uniform(0, 1, 2))
    y = np.sort(rng.uniform(0, 1, 2))
    return BoundingBox(x[0], y[0], x[1], y[1])


class TestFourier:
    def test_origin_box(self):
        emb = fourier_embed(BoundingBox(0, 0, 0, 0), n_freqs=4)
        assert emb.shape == (4 * 2 * 4,)
        sins, coss = emb.reshape(4, 4, 2)[..., 0], emb.reshape(4, 4, 2)[..., 1]
        assert np.all(sins == 0.0)
        assert np.all(coss == 1.0)

    def test_half_coordinate_base_freq(self):
        emb = fourier_embed(BoundingBox(0.5, 0, 0.5, 0), n_freqs=1).reshape(4, 1, 2)
        # x = 0.5, k = 0 -> sin(pi/2) = 1, cos = 0
        assert emb[0, 0, 0] == pytest.approx(1.0)
        assert emb[0, 0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_full_coordinate_second_freq(self):
        emb = fourier_embed(BoundingBox(0, 0, 1.0, 0), n_freqs=2).reshape(4, 2, 2)
        # x = 1.0, k = 1 -> sin(2 pi) = 0, cos(2 pi) = 1
        assert emb[2, 1, 0] == pytest.approx(0.0, abs=1e-12)
        assert emb[2, 1, 1] == pytest.approx(1.0)

    def test_zero_freqs_rejected(self):
        with pytest.raises(ContractError):
            fourier_embed(BoundingBox(0, 0, 1, 1), n_freqs=0)

    def test_injective_on_pixel_grid(self):
        # every box the 32-px generator can produce embeds uniquely
        seen = {}
        n = 32
        for x0 in range(n):
            for x1 in range(x0, n + 1):
                box = BoundingBox(x0 / n, 0.0, x1 / n, 0.0)
                key = fourier_embed(box, n_freqs=8).tobytes()
                assert key not in seen or seen[key] == (x0, x1)
                seen[key] = (x0, x1)


class TestIoU:
    def test_self_iou_is_one(self):
        b = BoundingBox(0.1, 0.1, 0.4, 0.9)
        assert iou(b, b) == pytest.approx(1.0)

    def test_disjoint_zero(self):
        assert iou(BoundingBox(0, 0, 0.2, 0.2), BoundingBox(0.5, 0.5, 1, 1)) == 0.0

    def test_third_overlap(self):
        a = BoundingBox(0, 0, 0.5, 0.5)
        b = BoundingBox(0.25, 0, 0.75, 0.5)
        assert iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_zero_area_no_overlap(self):
        assert iou(BoundingBox(0.3, 0.3, 0.3, 0.3), BoundingBox(0.5, 0.5, 0.5, 0.5)) == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            a, b = _random_box(rng), _random_box(rng)
            assert iou(a, b) == pytest.approx(iou_bruteforce(a.as_list(), b.as_list()))


class TestBoundingBox:
    def test_invalid_extent_rejected(self):
        with pytest.raises(ContractError):
            BoundingBox(0.5, 0.0, 0.2, 1.0)
        with pytest.raises(ContractError):
            BoundingBox(-0.1, 0.0, 0.2, 1.0)

    def test_zero_area_valid(self):
        BoundingBox(0.5, 0.5, 0.5, 0.5)

    def test_json_round_trip(self):
        b = BoundingBox(0.0, 0.25, 0.5, 1.0)
        assert BoundingBox.from_list(b.as_list()) == b
