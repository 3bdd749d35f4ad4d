"""Robust mean estimator: span formula, shorth search, and error bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arc_cpd.core import _unit
from arc_cpd.rume import _feasibility, _rume_batch, _shortest
from arc_cpd import (
    InfeasibleWindow,
    NoFeasibleCandidate,
    RumeParams,
    TimeSeries,
    TournamentConfig,
    auto_delta,
    effective_epsilon,
    rume,
    substream,
    tournament,
    trimming_span,
)

_FLOAT_MAX = float(np.finfo(np.float64).max)


def is_feasible(h, epsilon, delta):
    """The feasibility condition of step (3) at one level."""
    return _feasibility(h, epsilon, delta)[1] < 0.5


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


def oracle_feasibility(h, epsilon, delta):
    """Steps (2) and (3) in scalar Python for one level: the reference the
    elementwise helper in arc_cpd.rume is checked against. Returns
    (eps_eff, value, span)."""
    x = math.log(1.0 / delta) / h
    eps_eff = max(epsilon, x)
    value = 2.0 * eps_eff + 2.0 * math.sqrt(eps_eff * x) + x
    d = math.floor(h * (1.0 - 2.0 * eps_eff - 2.0 * math.sqrt(eps_eff * x) - x))
    return eps_eff, value, d


def bits(value):
    return np.float64(value).tobytes()


_EPSILONS = st.floats(0.0, 0.5, exclude_max=True)
# every normal delta in (0, 1), the extremes drawn on purpose; at 1 - 1e-16
# a level can pass the condition with span D = h
_DELTAS = st.one_of(st.sampled_from([1e-300, 1.0 - 1e-16]),
                    st.floats(float(np.finfo(np.float64).tiny), 1.0,
                              exclude_max=True))


class TestFeasibilityMatchesOracle:
    @given(st.integers(1, 5000), _EPSILONS, _DELTAS)
    @settings(max_examples=500, deadline=None)
    def test_scalar_calls_equal_oracle(self, h, eps, delta):
        eps_eff, value, d = oracle_feasibility(h, eps, delta)
        assert bits(effective_epsilon(eps, delta, h)) == bits(eps_eff)
        assert bits(_feasibility(h, eps, delta)[1]) == bits(value)
        assert is_feasible(h, eps, delta) == (value < 0.5)
        if 1 <= d <= h - 1:
            assert trimming_span(h, eps, delta) == d
            return
        with pytest.raises(InfeasibleWindow) as exc:
            trimming_span(h, eps, delta)
        err = exc.value
        assert (err.h, err.epsilon, err.delta, err.span) == (h, eps, delta, d)
        assert bits(err.epsilon_eff) == bits(eps_eff)
        assert bits(err.condition_value) == bits(value)

    @given(st.integers(1, 5000), st.lists(_EPSILONS, min_size=1, max_size=20),
           _DELTAS)
    @settings(max_examples=200, deadline=None)
    def test_helper_is_the_oracle_per_level(self, h, epsilons, delta):
        eps_eff, value, span = _feasibility(h, np.asarray(epsilons), delta)
        for i, eps in enumerate(epsilons):
            want = oracle_feasibility(h, eps, delta)
            assert bits(eps_eff[i]) == bits(want[0])
            assert bits(value[i]) == bits(want[1])
            assert span[i] == want[2]

    @given(st.integers(2, 400), st.sampled_from([2, 40, 170, 511]), _DELTAS)
    @settings(max_examples=100, deadline=None)
    def test_tournament_feasibility_is_the_oracle(self, h_train, h, delta):
        series = TimeSeries(np.random.default_rng(h_train).normal(
            0.0, 1.0, 2 * h_train))
        tc = TournamentConfig(grid=tuple(np.linspace(0.0, 0.49, 50)),
                              training_range=(0, 2 * h_train))
        levels = [(oracle_feasibility(h_train, e, delta),
                   oracle_feasibility(h, e, delta)) for e in tc.grid]
        want = tuple(t[1] < 0.5 and d[1] < 0.5 for t, d in levels)
        wide = [t[2] for (t, _), ok in zip(levels, want)
                if ok and not 1 <= t[2] <= h_train - 1]
        if not any(want):
            with pytest.raises(NoFeasibleCandidate):
                tournament(series, tc, h, delta, substream(0, 0))
        elif wide:
            with pytest.raises(InfeasibleWindow) as exc:
                tournament(series, tc, h, delta, substream(0, 0))
            assert exc.value.span == wide[0]
        else:
            res = tournament(series, tc, h, delta, substream(0, 0))
            assert res.feasible == want


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


def shorth_interval(sorted_half, d):
    """((low, high), 1-based left index) of the shortest interval spanning
    d steps of a sorted sample, from the kernel the estimator runs: one row
    of `rume._shortest` in its unit (`core._unit` over 2 terms)."""
    z = np.asarray(sorted_half, dtype=np.float64)
    scaled = z * _unit(z[0], z[-1], 2)
    j0 = int(_shortest(scaled[None, :], np.asarray([d]))[0])
    return (float(z[j0]), float(z[j0 + d])), j0 + 1


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

    def test_constant_window_of_non_dyadic_value_stays_in_interval(self):
        # the sum of 24 copies of 0.1 over 24 rounds to 0.10000000000000002
        out = rume([0.1] * 48, RumeParams(0.0, 0.1), substream(0, 1))
        assert out.interval == (0.1, 0.1)
        assert out.estimate == 0.1

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

    # a window whose extremes could overflow a 2h-term sum runs in the
    # power of two 2^-m, 2^m >= 2h: the plain formulas on the scaled
    # window, then scaled back
    bound = _FLOAT_MAX / (2 * h)
    big = ws[0] < -bound or ws[-1] > bound
    unit = 0.5 ** math.ceil(math.log2(2 * h)) if big else 1.0
    z, z_held, ws = unit * z, unit * z_held, unit * ws
    j0 = int(np.argmin(z[span:] - z[:h - span]))
    low, high = z[j0], z[j0 + span]
    inside = (z_held >= low) & (z_held <= high)
    kept = int(inside.sum())
    if kept == 0:
        # middle pair of the sorted window
        estimate = 0.5 * (ws[h - 1] + ws[h])
    else:
        # a mean that rounds past its kept interval is clipped into it
        estimate = np.where(inside, z_held, 0.0).sum() / kept
        estimate = min(max(estimate, low), high)
    return (np.float64(estimate / unit), np.float64(low / unit),
            np.float64(high / unit), kept)


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

        # full-range magnitudes, up to +-1.7e308, overflow nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the kernel takes ascending rows; the oracle sorts
            out = _rume_batch(np.sort(windows, axis=1), ids, seed, spans)
            for i in range(rows):
                assert_row_is_oracle(out, i, windows[i], int(spans[i]),
                                     substream(seed, int(ids[i])))
        assert np.isfinite(out[0]).all()
        kept = out[3] > 0
        assert (out[1][kept] <= out[0][kept]).all()
        assert (out[0][kept] <= out[2][kept]).all()

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


class TestRejections:
    @pytest.mark.parametrize("call, error, match", [
        pytest.param(lambda: RumeParams(epsilon=0.5, delta=0.1), ValueError,
                     "epsilon must lie", id="params_epsilon_half"),
        pytest.param(lambda: RumeParams(epsilon=-0.1, delta=0.1), ValueError,
                     "epsilon must lie", id="params_epsilon_negative"),
        pytest.param(lambda: RumeParams(epsilon=0.1, delta=0.0), ValueError,
                     "delta must lie", id="params_delta_zero"),
        pytest.param(lambda: RumeParams(epsilon=0.1, delta=1.0), ValueError,
                     "delta must lie", id="params_delta_one"),
        pytest.param(lambda: effective_epsilon(0.1, 0.1, 0), ValueError,
                     "h must be >= 1", id="effective_h_zero"),
        pytest.param(lambda: effective_epsilon(0.1, 1.0, 10), ValueError,
                     "delta must lie", id="effective_delta_one"),
        pytest.param(lambda: effective_epsilon(0.1, 0.0, 10), ValueError,
                     "delta must lie", id="effective_delta_zero"),
        pytest.param(lambda: auto_delta(1, 10, 0.1), ValueError,
                     "need n >= 2", id="auto_delta_n_one"),
        pytest.param(lambda: rume(np.array([0.0, 1.0, np.nan, 2.0]),
                                  RumeParams(epsilon=0.0, delta=0.5),
                                  substream(0, 0)),
                     ValueError, "window values must be finite",
                     id="rume_nonfinite_window"),
        pytest.param(lambda: RumeParams(None, 0.1), ValueError,
                     "epsilon must lie", id="params_epsilon_none"),
        # these raised ZeroDivisionError, a RuntimeWarning, or returned 0.59
        pytest.param(lambda: trimming_span(10, 0.1, 0.0), ValueError,
                     r"delta must lie in \(0, 1\)", id="span_delta_zero"),
        pytest.param(lambda: trimming_span(0, 0.1, 0.1), ValueError,
                     "h must be >= 1", id="span_h_zero"),
        pytest.param(lambda: trimming_span(10, 0.1, 1.5), ValueError,
                     r"delta must lie in \(0, 1\)", id="span_delta_above_one"),
        pytest.param(lambda: auto_delta(100, 10.5, 0.1), ValueError,
                     "h must be an integer, not 10.5",
                     id="auto_delta_h_fraction"),
    ])
    def test_documented_rejection(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
