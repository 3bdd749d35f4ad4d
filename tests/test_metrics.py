"""Hausdorff, covering, and count error against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arc_cpd import (
    ChangePointSet,
    count_error,
    covering,
    hausdorff,
    score,
    substream,
)


def brute_hausdorff(a, b):
    if not a and not b:
        return 0.0
    if not a or not b:
        return math.inf
    d_ab = max(min(abs(x - y) for y in b) for x in a)
    d_ba = max(min(abs(x - y) for x in a) for y in b)
    return float(max(d_ab, d_ba))


def brute_covering(est, truth):
    """Covering from index sets: index i (1-based) lies in the segment
    numbered by how many change locations precede it."""
    def segments(cps):
        segs = {}
        for i in range(1, cps.n + 1):
            segs.setdefault(sum(t < i for t in cps.locations), set()).add(i)
        return list(segs.values())

    total = 0.0
    for truth_set in segments(truth):
        best = 0.0
        for other in segments(est):
            j = len(truth_set & other) / len(truth_set | other)
            best = max(best, j)
        total += len(truth_set) * best
    return total / truth.n


def random_change_points(g, n):
    k = int(g.integers(0, max(1, n // 3)))
    locs = np.sort(g.choice(np.arange(1, n), size=min(k, n - 1), replace=False))
    return ChangePointSet(tuple(int(v) for v in locs), n)


class TestHausdorff:
    def test_direct_arithmetic(self):
        a = ChangePointSet((1, 5), 10)
        b = ChangePointSet((2, 7), 10)
        assert hausdorff(a, b) == 2.0

    def test_one_empty_is_infinite(self):
        assert hausdorff(ChangePointSet((), 10), ChangePointSet((3,), 10)) == math.inf

    def test_both_empty_is_zero(self):
        assert hausdorff(ChangePointSet((), 10), ChangePointSet((), 10)) == 0.0

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            hausdorff(ChangePointSet((1,), 10), ChangePointSet((1,), 11))

    def test_matches_brute_force(self):
        g = substream(31, 0).generator()
        for _ in range(2000):
            n = int(g.integers(2, 100))
            a = random_change_points(g, n)
            b = random_change_points(g, n)
            assert hausdorff(a, b) == brute_hausdorff(a.locations, b.locations)

    def test_symmetry_and_identity(self):
        g = substream(32, 0).generator()
        for _ in range(1000):
            n = int(g.integers(2, 100))
            a = random_change_points(g, n)
            b = random_change_points(g, n)
            assert hausdorff(a, b) == hausdorff(b, a)
            assert hausdorff(a, a) == 0.0
            if hausdorff(a, b) == 0.0:
                assert a == b

    def test_triangle_inequality_nonempty(self):
        g = substream(33, 0).generator()
        count = 0
        while count < 500:
            n = int(g.integers(3, 100))
            a = random_change_points(g, n)
            b = random_change_points(g, n)
            c = random_change_points(g, n)
            if a.k == 0 or b.k == 0 or c.k == 0:
                continue
            count += 1
            assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9


class TestCovering:
    def test_identical_partitions(self):
        cps = ChangePointSet((3, 7), 12)
        assert covering(cps, cps) == 1.0

    def test_half_split_of_single_block(self):
        truth = ChangePointSet((), 10)
        est = ChangePointSet((5,), 10)
        assert covering(est, truth) == 0.5

    def test_directional(self):
        # weighting by truth blocks makes the metric asymmetric
        one = ChangePointSet((9,), 10)
        many = ChangePointSet((3, 6), 10)
        assert covering(one, many) != covering(many, one)

    def test_matches_exhaustive_double_loop(self):
        g = substream(34, 0).generator()
        for _ in range(1500):
            n = int(g.integers(2, 31))
            est = random_change_points(g, n)
            truth = random_change_points(g, n)
            want = brute_covering(est, truth)
            assert covering(est, truth) == pytest.approx(want, abs=1e-12)

    def test_bounds(self):
        g = substream(35, 0).generator()
        for _ in range(500):
            n = int(g.integers(2, 60))
            est = random_change_points(g, n)
            truth = random_change_points(g, n)
            assert 0.0 < covering(est, truth) <= 1.0


class TestCountError:
    def test_examples(self):
        n = 10
        assert count_error(ChangePointSet((1, 2), n), ChangePointSet((5,), n)) == 1
        assert count_error(ChangePointSet((), n), ChangePointSet((), n)) == 0
        assert count_error(ChangePointSet((1,), n), ChangePointSet((1,), n)) == 0


class TestScore:
    def test_report_fields_consistent(self):
        est = ChangePointSet((40, 80), 100)
        truth = ChangePointSet((42,), 100)
        rep = score(est, truth)
        assert rep.hausdorff == 38.0
        assert rep.scaled_hausdorff == pytest.approx(0.38)
        assert rep.count_error == 1
        assert 0.0 < rep.covering <= 1.0

    def test_infinite_hausdorff_propagates(self):
        rep = score(ChangePointSet((), 100), ChangePointSet((50,), 100))
        assert rep.hausdorff == math.inf
        assert rep.scaled_hausdorff == math.inf
        assert rep.count_error == 1

    @given(st.integers(2, 60), st.data())
    @settings(max_examples=200, deadline=None)
    def test_perfect_estimate_scores_perfectly(self, n, data):
        locs = data.draw(
            st.lists(st.integers(1, n - 1), unique=True, max_size=n - 1)
        )
        cps = ChangePointSet(tuple(sorted(locs)), n)
        rep = score(cps, cps)
        assert rep.hausdorff == 0.0
        assert rep.count_error == 0
        assert rep.covering == 1.0


class TestRejections:
    @pytest.mark.parametrize("call, error, match", [
        pytest.param(lambda: covering(
            ChangePointSet((5,), 10), ChangePointSet((5,), 12)),
            ValueError, "same series length", id="covering_lengths_differ"),
    ])
    def test_documented_rejection(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
