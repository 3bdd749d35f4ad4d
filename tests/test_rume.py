"""Robust mean estimator: span formula, shorth search, and error bounds."""

import importlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arc_cpd.rume import _rume_batch
from arc_cpd import (
    InfeasibleWindow,
    RumeParams,
    auto_delta,
    effective_epsilon,
    is_feasible,
    rume,
    shorth_interval,
    substream,
    trimming_span,
)

# the package binds the name rume to the function, so fetch the module
RUME_MODULE = importlib.import_module("arc_cpd.rume")

_FLOAT_MAX = float(np.finfo(np.float64).max)


class TestEffectiveEpsilon:
    def test_epsilon_dominates(self):
        assert effective_epsilon(0.1, math.exp(-1), 100) == pytest.approx(0.1)

    def test_ratio_dominates(self):
        assert effective_epsilon(0.0, math.exp(-1), 10) == pytest.approx(0.1)

    def test_extreme_delta(self):
        assert effective_epsilon(0.2, math.exp(-40), 100) == pytest.approx(0.4)


class TestTrimmingSpan:
    def test_hand_checked_value(self):
        # h=200, eps=0.1, delta=1/400: x=0.029957, term sum 0.339425,
        # floor(200 * 0.660575) = 132
        assert trimming_span(200, 0.1, 1.0 / 400.0) == 132

    def test_boundary_still_valid(self):
        # h=10, eps=0, delta=e^-1 sits exactly on the feasibility edge but
        # the span itself is fine: floor(10 * 0.5) = 5
        assert trimming_span(10, 0.0, math.exp(-1)) == 5
        assert not is_feasible(10, 0.0, math.exp(-1))

    def test_aggressive_epsilon_raises(self):
        with pytest.raises(InfeasibleWindow) as exc:
            trimming_span(2, 0.45, 0.5)
        assert exc.value.h == 2
        assert exc.value.span < 1

    @given(st.integers(8, 400), st.floats(0.0, 0.24), st.floats(0.01, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_feasibility_implies_valid_span(self, h, eps, delta):
        if is_feasible(h, eps, delta):
            assert 1 <= trimming_span(h, eps, delta) <= h - 1

    def test_monotone_in_epsilon(self):
        spans = [trimming_span(100, e, 0.01) for e in (0.0, 0.05, 0.1, 0.15)]
        assert spans == sorted(spans, reverse=True)


class TestAutoDelta:
    def test_one_over_n_when_feasible(self):
        assert auto_delta(5000, 170, 0.1) == pytest.approx(1.0 / 5000.0)

    def test_inflates_when_one_over_n_infeasible(self):
        # log(100)/8 = 0.576 blows the budget; fallback spends half of
        # x_max = 0.1 (the eps = 0.1 budget limit), so delta = exp(-0.4)
        d = auto_delta(100, 8, 0.1)
        assert d == pytest.approx(math.exp(-0.4))
        assert is_feasible(8, 0.1, d)

    def test_impossible_epsilon_raises(self):
        with pytest.raises(InfeasibleWindow):
            auto_delta(1000, 50, 0.3)

    @given(st.integers(4, 2000), st.integers(2, 300), st.floats(0.0, 0.24))
    @settings(max_examples=300, deadline=None)
    def test_result_is_always_feasible(self, n, h, eps):
        try:
            d = auto_delta(n, h, eps)
        except InfeasibleWindow:
            return
        assert 0.0 < d < 1.0
        assert is_feasible(h, eps, d)


def brute_force_shorth(z, d):
    """Exhaustive O(h^2)-style scan over all candidate windows."""
    best = None
    best_j = None
    for j in range(len(z) - d):
        width = z[j + d] - z[j]
        if best is None or width < best:
            best = width
            best_j = j
    return (float(z[best_j]), float(z[best_j + d])), best_j + 1


class TestShorthInterval:
    def test_clear_winner(self):
        assert shorth_interval([0.0, 1.0, 2.0, 10.0], 2) == ((0.0, 2.0), 1)

    def test_leftmost_on_tie(self):
        assert shorth_interval([0.0, 1.0, 2.0, 3.0], 2) == ((0.0, 2.0), 1)

    def test_matches_brute_force_h12(self):
        g = substream(7, 0).generator()
        for _ in range(500):
            z = np.sort(g.integers(0, 20, 12).astype(np.float64))
            d = int(g.integers(1, 12))
            assert shorth_interval(z, d) == brute_force_shorth(z, d)

    def test_matches_brute_force_up_to_h64(self):
        g = substream(8, 0).generator()
        for _ in range(2000):
            h = int(g.integers(2, 65))
            # coarse rounding plants plenty of exact ties
            z = np.sort(np.round(g.normal(0, 1, h), 1))
            d = int(g.integers(1, h))
            assert shorth_interval(z, d) == brute_force_shorth(z, d)

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError):
            shorth_interval([0.0, 1.0, 2.0], 3)

    def test_widths_past_float_max(self):
        # both plain widths overflow to inf; the second is the shorter
        z = [-1.7e308, -1.0e308, 1.6e308, 1.6e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shorth_interval(z, 2) == ((-1.0e308, 1.6e308), 2)


class TestRume:
    def test_constant_window_exact(self):
        # smallest even window where delta = 0.1 is feasible at eps = 0
        out = rume([5.0] * 48, RumeParams(0.0, 0.1), substream(0, 1))
        assert out.estimate == 5.0
        assert not out.degenerate
        assert out.interval == (5.0, 5.0)

    def test_small_window_with_aggressive_delta_raises(self):
        # the same delta on a 20-point window leaves no valid span
        with pytest.raises(InfeasibleWindow):
            rume([5.0] * 20, RumeParams(0.0, 0.1), substream(0, 1))

    def test_infeasible_four_point_window(self):
        with pytest.raises(InfeasibleWindow):
            rume([0.0, 1.0, 2.0, 3.0], RumeParams(0.45, 0.5), substream(0, 1))

    def test_point_mass_contamination_monte_carlo(self):
        # 2h=400 with a tenth of the points at 100: the estimate must stay
        # within 1.0 of the true mean 5 in at least 99% of 1000 trials
        params = RumeParams(0.1, 1.0 / 400.0)
        hits = 0
        for r in range(1000):
            g = substream(2024, r).generator()
            window = np.concatenate([g.normal(5.0, 1.0, 360), np.full(40, 100.0)])
            out = rume(window, params, substream(77, r))
            hits += abs(out.estimate - 5.0) <= 1.0
        assert hits >= 990

    def test_determinism(self):
        g = substream(5, 0).generator()
        window = g.normal(0, 1, 80)
        a = rume(window, RumeParams(0.05, 0.01), substream(11, 4))
        b = rume(window, RumeParams(0.05, 0.01), substream(11, 4))
        assert a == b

    def test_split_depends_on_stream(self):
        g = substream(5, 1).generator()
        window = g.normal(0, 1, 80)
        outs = {rume(window, RumeParams(0.05, 0.01), substream(11, i)).estimate
                for i in range(8)}
        assert len(outs) > 1

    @given(
        st.lists(st.integers(-20, 20), min_size=10, max_size=10),
        st.sampled_from([0.5, 2.0, 4.0]),
        st.integers(-8, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_positive_affine_equivariance_exact(self, ints, scale, shift):
        # integer windows keep every comparison exact, so the split, the
        # selected interval, and the kept set all transport verbatim; the
        # final mean is bit-exact under pure power-of-two scaling and only
        # rounding-level off once a shift joins (division by kept_count)
        window = np.asarray(ints, dtype=np.float64)
        params = RumeParams(0.0, 0.7)
        base = rume(window, params, substream(3, 9))
        scaled = rume(scale * window, params, substream(3, 9))
        assert scaled.estimate == scale * base.estimate
        assert scaled.kept_count == base.kept_count
        assert scaled.degenerate == base.degenerate
        moved = rume(scale * window + shift, params, substream(3, 9))
        assert moved.kept_count == base.kept_count
        assert moved.degenerate == base.degenerate
        assert moved.estimate == pytest.approx(
            scale * base.estimate + shift, abs=1e-12
        )

    def test_degenerate_fallback_is_window_median(self):
        # [0,0,10,10] with a split that puts both zeros in the selection half
        # leaves no held-out point inside the interval
        params = RumeParams(0.0, math.exp(-0.14))
        seen = None
        for sid in range(50):
            out = rume([0.0, 0.0, 10.0, 10.0], params, substream(1, sid))
            if out.degenerate:
                seen = out
                break
        assert seen is not None
        assert seen.kept_count == 0
        assert seen.estimate == 5.0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_outcome_invariants(self, data):
        h = data.draw(st.integers(10, 60))
        eps = data.draw(st.floats(0.0, 0.2))
        delta = data.draw(st.floats(0.01, 0.5))
        if not is_feasible(h, eps, delta):
            return
        seed = data.draw(st.integers(0, 1000))
        g = substream(seed, 0).generator()
        window = g.normal(0, 3, 2 * h)
        out = rume(window, RumeParams(eps, delta), substream(seed, 1))
        low, high = out.interval
        assert low <= high
        if not out.degenerate:
            assert out.kept_count >= 1
            assert low <= out.estimate <= high

    def test_rejects_odd_window(self):
        with pytest.raises(ValueError):
            rume([1.0, 2.0, 3.0, 4.0, 5.0], RumeParams(0.0, 0.5), substream(0, 0))

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            rume([1.0, 2.0], RumeParams(0.0, 0.5), substream(0, 0))

    def test_near_float_max_window_is_finite(self):
        # 20 held-out terms of 8e307 overflow a plain sum
        out = rume([8e307] * 40, RumeParams(0.0, 0.5), substream(0, 1))
        assert out.estimate == pytest.approx(8e307, rel=1e-12)
        assert not out.degenerate
        # seven kept terms of float max / 7 round up past float max
        top = _FLOAT_MAX
        out = rume([top] * 17 + [0.0] * 15, RumeParams(0.0, 0.3),
                   substream(0, 0))
        assert out.kept_count == 7
        assert out.estimate == top


def oracle_rume(window, span, rng):
    """The estimator written out step by step for one window.

    The reference each kernel row must match bit for bit. Returns
    (estimate, low, high, kept); kept == 0 means degenerate.
    """
    ws = np.sort(np.asarray(window, dtype=np.float64))
    h = ws.size // 2
    perm = rng.generator().permutation(2 * h)
    z = ws[np.sort(perm[:h])]        # sorted positions keep z ascending
    z_held = ws[np.sort(perm[h:])]

    # a window whose extremes could overflow a 2h-term sum halves before
    # subtracting or adding and sums pre-divided terms
    bound = _FLOAT_MAX / (2 * h)
    big = ws[0] < -bound or ws[-1] > bound
    zw = 0.5 * z if big else z
    j0 = int(np.argmin(zw[span:] - zw[:h - span]))
    low, high = z[j0], z[j0 + span]
    inside = (z_held >= low) & (z_held <= high)
    kept = int(inside.sum())
    if kept == 0:
        # middle pair of the sorted window
        if big:
            estimate = 0.5 * ws[h - 1] + 0.5 * ws[h]
        else:
            estimate = 0.5 * (ws[h - 1] + ws[h])
    elif big:
        with np.errstate(over="ignore"):
            estimate = np.where(inside, z_held / kept, 0.0).sum()
        estimate = min(max(estimate, low), high)
    else:
        estimate = np.where(inside, z_held, 0.0).sum() / kept
    return np.float64(estimate), np.float64(low), np.float64(high), kept


def assert_row_is_oracle(out, i, window, span, rng):
    est, low, high, kept = oracle_rume(window, span, rng)
    assert est.tobytes() == out[0][i].tobytes()
    assert low.tobytes() == out[1][i].tobytes()
    assert high.tobytes() == out[2][i].tobytes()
    assert kept == out[3][i]


# value families for windows: heavy ties, a large offset that leaves only
# the low bits to tell values apart, and magnitudes that overflow plain sums
_FAMILIES = (
    st.integers(-3, 3).map(float),
    st.floats(-1.0, 1.0).map(lambda v: 1e6 + v),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-1.7e308, -8e307, -1.0, 0.0, 1.0, 8e307, 1.7e308]),
)


class TestBatchMatchesScalar:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_scalar_bit_for_bit(self, data):
        h = data.draw(st.integers(2, 24))
        family = data.draw(st.sampled_from(_FAMILIES))
        rows = data.draw(st.integers(1, 6))
        windows = np.asarray(data.draw(st.lists(
            st.lists(family, min_size=2 * h, max_size=2 * h),
            min_size=rows, max_size=rows)), dtype=np.float64)
        run = data.draw(st.integers(0, 2 * h))
        windows[:, :run] = windows[:, :1]  # a constant run
        # each row its own span, as in the tournament
        spans = np.asarray(data.draw(st.lists(
            st.integers(1, h - 1), min_size=rows, max_size=rows)))
        seed = data.draw(st.integers(0, 2 ** 32))
        ids = np.asarray(data.draw(st.lists(
            st.integers(0, 10 ** 6), min_size=rows, max_size=rows)))
        chunk = data.draw(st.sampled_from([1, 2, 1024]))

        # full-range magnitudes, up to +-1.7e308, overflow nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(RUME_MODULE, "_CHUNK", chunk):
                out = _rume_batch(windows, ids, seed, spans)
            for i in range(rows):
                assert_row_is_oracle(out, i, windows[i], int(spans[i]),
                                     substream(seed, int(ids[i])))
        assert np.isfinite(out[0]).all()

    def test_degenerate_rows_near_float_max(self):
        # the median fallback's a + b overflows here, 0.5*a + 0.5*b does not
        window = [1.6e308, 1.6e308, 1.7e308, 1.7e308]
        params = RumeParams(0.0, math.exp(-0.14))
        span = trimming_span(2, 0.0, params.delta)
        out = _rume_batch(np.asarray([window] * 50), np.arange(50), 1, span)
        bad = out[3] == 0
        assert bad.any()
        assert (out[0][bad] == 0.5 * 1.6e308 + 0.5 * 1.7e308).all()
        for sid in range(50):
            assert_row_is_oracle(out, sid, window, span, substream(1, sid))
            # scalar rume is the one-row call
            one = rume(window, params, substream(1, sid))
            assert np.float64(one.estimate).tobytes() == out[0][sid].tobytes()
            assert one.interval == (out[1][sid], out[2][sid])
            assert one.kept_count == out[3][sid]
            assert one.degenerate == bad[sid]
