"""Robust mean estimator: span formula, shorth search, and error bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arc_cpd.detector import _rume_batch
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
            assert shorth_interval(z, 2, halved=True) == \
                ((-1.0e308, 1.6e308), 2)


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
        eps = data.draw(st.sampled_from([0.0, 0.05, 0.1]))
        delta = data.draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))
        try:
            span = trimming_span(h, eps, delta)
        except InfeasibleWindow:
            assume(False)
        family = data.draw(st.sampled_from(_FAMILIES))
        rows = data.draw(st.integers(1, 4))
        windows = np.asarray(data.draw(st.lists(
            st.lists(family, min_size=2 * h, max_size=2 * h),
            min_size=rows, max_size=rows)), dtype=np.float64)
        run = data.draw(st.integers(0, 2 * h))
        windows[:, :run] = windows[:, :1]  # a constant run
        seed = data.draw(st.integers(0, 2 ** 32))
        ids = np.asarray(data.draw(st.lists(
            st.integers(0, 10 ** 6), min_size=rows, max_size=rows)))

        # full-range magnitudes, up to +-1.7e308, overflow nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, bad = _rume_batch(windows, ids, seed, span)
            for i in range(rows):
                out = rume(windows[i], RumeParams(eps, delta),
                           substream(seed, int(ids[i])))
                assert np.float64(out.estimate).tobytes() == est[i].tobytes()
                assert out.degenerate == bad[i]
        assert np.isfinite(est).all()

    def test_degenerate_rows_near_float_max(self):
        # the median fallback's a + b overflows here, 0.5*a + 0.5*b does not
        window = [1.6e308, 1.6e308, 1.7e308, 1.7e308]
        params = RumeParams(0.0, math.exp(-0.14))
        span = trimming_span(2, 0.0, params.delta)
        est, bad = _rume_batch(np.asarray([window] * 50), np.arange(50), 1,
                               span)
        assert bad.any()
        assert (est[bad] == 0.5 * 1.6e308 + 0.5 * 1.7e308).all()
        for sid in range(50):
            out = rume(window, params, substream(1, sid))
            assert np.float64(out.estimate).tobytes() == est[sid].tobytes()
