"""Tests for the contamination-level tournament."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import arc_cpd.tune as TUNE
from arc_cpd import (
    NoFeasibleCandidate,
    RumeParams,
    TimeSeries,
    rume,
    substream,
)
from arc_cpd.tune import (
    _EQUAL_RTOL,
    _MARGIN_ATOL,
    TournamentConfig,
    default_grid,
    pairwise_test,
    select_epsilon,
    tournament,
)


def clean_training(seed: int, t: int = 300) -> TimeSeries:
    g = np.random.default_rng(seed)
    return TimeSeries(g.normal(0.0, 1.0, t))


def contaminated_training(seed: int, t: int = 300,
                          eps: float = 0.1) -> TimeSeries:
    g = np.random.default_rng(seed)
    values = g.normal(0.0, 1.0, t)
    mask = g.random(t) < eps
    values[mask] = 10.0
    return TimeSeries(values)


def bits(value):
    return None if value is None else np.float64(value).tobytes()


def oracle_pairwise(theta_j, theta_k, training, sigma) -> int:
    """The pairwise rule step by step for one ordered pair: the reference
    the kernel in arc_cpd.tune is checked against."""
    theta_j, theta_k = float(theta_j), float(theta_k)
    scale = max(1.0, abs(theta_j), abs(theta_k))
    if abs(theta_j - theta_k) <= _EQUAL_RTOL * scale:
        return 0
    y = np.asarray(training, dtype=np.float64)
    t = y.size
    mid = 0.5 * theta_j + 0.5 * theta_k
    # E_jk = {y closer to theta_j}: below the midpoint when theta_j is the
    # smaller model, above it when the larger
    if theta_j < theta_k:
        p_hat = np.count_nonzero(y < mid) / t
        sign = 1.0
    else:
        p_hat = np.count_nonzero(y > mid) / t
        sign = -1.0
    p_j = norm.cdf(sign * (mid - theta_j) / sigma)
    p_k = norm.cdf(sign * (mid - theta_k) / sigma)
    return int(abs(p_hat - p_j) - abs(p_hat - p_k) > _MARGIN_ATOL)


# value families for estimates and training values: heavy ties, a large
# offset that leaves only the low bits to tell values apart, and magnitudes
# whose plain midpoint overflows
_FAMILIES = (
    st.integers(-3, 3).map(float),
    st.floats(-1.0, 1.0).map(lambda v: 1e6 + v),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-1.7e308, -1.6e308, -1.5e308, -1.0, 0.0, 1.0,
                     1.5e308, 1.6e308, 1.7e308]),
)


class TestDefaultGrid:
    def test_shape_and_endpoints(self):
        grid = default_grid()
        assert len(grid) == 201
        assert grid[0] == 0.0
        assert grid[-1] == 0.25
        steps = np.diff(grid)
        assert np.allclose(steps, steps[0])

    def test_custom_size(self):
        assert len(default_grid(11)) == 11


class TestTournamentConfig:
    def test_defaults(self):
        tc = TournamentConfig()
        assert tc.training_range == (0, 300)
        assert tc.sigma == 1.0
        assert tuple(tc.grid) == tuple(default_grid())

    @pytest.mark.parametrize("kwargs", [
        {"grid": ()},
        {"grid": (0.2, 0.1)},          # not increasing
        {"grid": (0.1, 0.6)},          # leaves [0, 1/2)
        {"grid": (-0.1, 0.2)},
        {"training_range": (10, 10)},  # empty
        {"training_range": (-2, 100)},
        {"sigma": 0.0},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            TournamentConfig(**kwargs)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_nonfinite_sigma(self, sigma):
        # a NaN sigma made every comparison false: all scores 0, grid[0]
        with pytest.raises(ValueError, match="finite"):
            TournamentConfig(sigma=sigma)


class TestPairwiseTest:
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_nonfinite_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            pairwise_test(2.0, 9.0, np.full(50, 2.0), sigma)

    def test_training_at_theta_j(self):
        training = np.full(50, 2.0)
        assert pairwise_test(2.0, 9.0, training, 1.0) == 0

    def test_training_at_theta_k(self):
        training = np.full(50, 2.0)
        assert pairwise_test(9.0, 2.0, training, 1.0) == 1

    def test_equal_candidates_never_flag(self):
        g = np.random.default_rng(0)
        training = g.normal(0.0, 1.0, 40)
        assert pairwise_test(3.0, 3.0, training, 1.0) == 0

    def test_prefers_true_location(self):
        # with theta_j at the true mean and theta_k one sigma off, the
        # empirical frequency of the midpoint event sides with j almost
        # always at this sample size
        g = np.random.default_rng(7)
        wins = sum(
            pairwise_test(0.0, 1.0, g.normal(0.0, 1.0, 300), 1.0) == 0
            for _ in range(500))
        assert wins >= 475

    def test_symmetric_flags(self):
        # swapping the candidates swaps the comparison, so at most one
        # direction can flag
        g = np.random.default_rng(3)
        for _ in range(50):
            training = g.normal(0.0, 1.0, 60)
            a, b = g.normal(0.0, 2.0, 2)
            if a == b:
                continue
            assert (pairwise_test(a, b, training, 1.0)
                    + pairwise_test(b, a, training, 1.0)) <= 1

    @pytest.mark.parametrize("training, theta_j, theta_k", [
        ([], 0.0, 1.0),
        ([0.0, np.nan, 1.0], 0.0, 1.0),
        ([0.0, np.inf, 1.0], 0.0, 1.0),
        ([0.0, 1.0], np.nan, 1.0),
        ([0.0, 1.0], 0.0, -np.inf),
    ])
    def test_rejects_empty_or_nonfinite_input(self, training, theta_j,
                                              theta_k):
        with pytest.raises(ValueError):
            pairwise_test(theta_j, theta_k, training, 1.0)


class TestPairwiseKernel:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_tournament_and_pairwise_test_equal_oracle(self, data):
        family = data.draw(st.sampled_from(_FAMILIES))
        theta = np.asarray(data.draw(st.lists(family, min_size=1,
                                              max_size=6)))
        # 40-60 training values keep every level of a short grid feasible
        training = np.asarray(data.draw(st.lists(
            family, min_size=40, max_size=60)), dtype=np.float64)
        training = training[:training.size // 2 * 2]
        sigma = data.draw(st.one_of(st.sampled_from([1e-300, 1.0, 1e300]),
                                    st.floats(1e-300, 1e300)))
        expected = np.asarray([[oracle_pairwise(a, b, training, sigma)
                                for b in theta] for a in theta])

        # the drawn values stand in for the candidate estimates
        matrices, beats = [], TUNE._beats

        def record(*args):
            matrices.append(beats(*args))
            return matrices[-1]

        tc = TournamentConfig(grid=tuple(0.01 * j for j in range(theta.size)),
                              training_range=(0, training.size), sigma=sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(TUNE, "_rume_batch",
                                   lambda *args: (theta,)), \
                    mock.patch.object(TUNE, "_beats", record):
                res = tournament(TimeSeries(training), tc, 100, 0.5,
                                 substream(0, 0))
            assert all(res.feasible)
            # pairs play in ascending order of estimate
            order = np.argsort(theta, kind="stable")
            assert (matrices[0] == expected[np.ix_(order, order)]).all()
            assert res.scores == tuple(int(s) for s in expected.sum(axis=1))
            for i, a in enumerate(theta):
                for j, b in enumerate(theta):
                    assert pairwise_test(a, b, training, sigma) == \
                        expected[i, j]

    def test_scores_at_scale_equal_oracle(self):
        # 1075 feasible levels, far past the six estimates drawn above: a
        # checked score is the sum of its step-by-step pair decisions
        grid, delta = default_grid(2001), 1.0 / 5000.0
        ts = contaminated_training(21)
        res = tournament(ts, TournamentConfig(grid=grid), 170, delta,
                         substream(9, 0))
        alive = [j for j, ok in enumerate(res.feasible) if ok]
        assert len(alive) == 1075
        est = {j: res.estimates[j] for j in alive}
        picks = {res.selected_index, min(alive, key=est.get),
                 max(alive, key=est.get), alive[1], alive[len(alive) // 2]}
        assert len(picks) == 5
        scores = {j: sum(oracle_pairwise(est[j], est[k], ts.values, 1.0)
                         for k in alive) for j in picks}
        assert {j: res.scores[j] for j in picks} == scores
        assert len(set(scores.values())) > 1

    def test_near_float_max(self):
        # the plain midpoint of these estimates is inf
        training = np.full(50, 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pairwise_test(1.6e308, 1.5e308, training, 1.0) == 1
            assert pairwise_test(1.5e308, 1.6e308, training, 1.0) == 0
            g = np.random.default_rng(4)
            ts = TimeSeries(1.55e308 + 1e305 * g.normal(0.0, 1.0, 300))
            res = tournament(ts, TournamentConfig(), 150, 0.2,
                             substream(14, 0))
        assert res.feasible[res.selected_index]


class TestTournament:
    def test_constant_training_selects_floor(self):
        ts = TimeSeries(np.full(300, 4.0))
        res = tournament(ts, TournamentConfig(), 150, 0.2, substream(3, 0))
        # every candidate estimates exactly 4.0, every pairwise comparison
        # short-circuits, and the leftmost zero-score index wins
        assert res.epsilon_selected == 0.0
        assert res.selected_index == 0

    def test_scores_within_range(self):
        res = tournament(clean_training(11), TournamentConfig(), 150, 0.2,
                         substream(5, 0))
        m = len(res.scores)
        live = [s for s in res.scores if s is not None]
        assert live
        assert all(0 <= s <= m - 1 for s in live)
        assert res.scores[res.selected_index] == min(live)

    def test_infeasible_levels_masked(self):
        # at delta = 1/5000 the upper end of the grid fails the window
        # feasibility condition; those levels carry no estimate or score
        res = tournament(clean_training(1), TournamentConfig(), 170,
                         1.0 / 5000.0, substream(4, 0))
        assert not all(res.feasible)
        assert any(res.feasible)
        for j, ok in enumerate(res.feasible):
            if ok:
                assert res.estimates[j] is not None
                assert res.scores[j] is not None
            else:
                assert res.estimates[j] is None
                assert res.scores[j] is None
        assert res.feasible[res.selected_index]

    @pytest.mark.parametrize("size, feasible", [(201, 108), (2001, 1075)],
                             ids=["201", "2001"])
    def test_estimates_follow_named_streams(self, size, feasible):
        # candidate j is rume on substream(rng.child_seed(), j), bit for bit;
        # the larger grid sends more rows than one scan block (1024) to one
        # estimator call
        grid, delta = default_grid(size), 1.0 / 5000.0
        ts, rng = contaminated_training(21), substream(9, 0)
        res = tournament(ts, TournamentConfig(grid=grid), 170, delta, rng)
        assert sum(res.feasible) == feasible
        base = rng.child_seed()
        for j, ok in enumerate(res.feasible):
            if ok:
                out = rume(ts.values, RumeParams(grid[j], delta),
                           substream(base, j))
                assert bits(out.estimate) == bits(res.estimates[j])
        # one more, infeasible level moves no other candidate's estimate
        wider = TournamentConfig(grid=grid + (0.45,))
        more = tournament(ts, wider, 170, delta, rng)
        assert not more.feasible[-1]
        assert [bits(e) for e in more.estimates[:-1]] == \
            [bits(e) for e in res.estimates]

    def test_no_feasible_candidate(self):
        # a tiny detection window forces the effective level past the
        # feasibility boundary for every grid entry
        with pytest.raises(NoFeasibleCandidate):
            tournament(clean_training(2), TournamentConfig(), 5, 0.2,
                       substream(6, 0))

    def test_training_range_exceeds_series(self):
        g = np.random.default_rng(9)
        short = TimeSeries(g.normal(0.0, 1.0, 100))
        with pytest.raises(ValueError):
            tournament(short, TournamentConfig(), 150, 0.2, substream(7, 0))

    def test_odd_training_slice_drops_last_point(self):
        g = np.random.default_rng(12)
        values = g.normal(0.0, 1.0, 301)
        a = tournament(TimeSeries(values), TournamentConfig(
            training_range=(0, 301)), 150, 0.2, substream(8, 0))
        b = tournament(TimeSeries(values[:300]), TournamentConfig(),
                       150, 0.2, substream(8, 0))
        assert a.selected_index == b.selected_index
        assert a.scores == b.scores

    def test_deterministic(self):
        ts = contaminated_training(21)
        a = tournament(ts, TournamentConfig(), 150, 0.2, substream(9, 0))
        b = tournament(ts, TournamentConfig(), 150, 0.2, substream(9, 0))
        assert a == b

    def test_rng_changes_selection_inputs(self):
        # the candidate estimates depend on the split streams, so a
        # different rng may move them; estimates must not be all equal
        # across two seeds (the training data is continuous)
        ts = clean_training(30)
        a = tournament(ts, TournamentConfig(), 150, 0.2, substream(10, 0))
        b = tournament(ts, TournamentConfig(), 150, 0.2, substream(11, 0))
        ea = [e for e in a.estimates if e is not None]
        eb = [e for e in b.estimates if e is not None]
        assert ea != eb

    def test_translation_keeps_selected_index(self):
        ts = contaminated_training(17)
        shifted = TimeSeries(ts.values + 5.0)
        a = tournament(ts, TournamentConfig(), 150, 0.2, substream(12, 0))
        b = tournament(shifted, TournamentConfig(), 150, 0.2,
                       substream(12, 0))
        assert a.selected_index == b.selected_index

    def test_select_epsilon_matches_tournament(self):
        ts = contaminated_training(19)
        eps = select_epsilon(ts, TournamentConfig(), 150, 0.2,
                             substream(13, 0))
        res = tournament(ts, TournamentConfig(), 150, 0.2, substream(13, 0))
        assert eps == res.epsilon_selected


class TestSelectionBands:
    # 200-trial checks of where the selected level lands; the threshold
    # is 80% of trials inside the stated band. The failure budget delta
    # trades off the two regimes (it floors the effective trim level of
    # every candidate), so each check runs at a budget calibrated for
    # its training distribution.

    TRIALS = 200
    DETECTION_H = 150

    def test_contaminated_training_lands_in_band(self):
        hits = 0
        for i in range(self.TRIALS):
            ts = contaminated_training(1000 + i)
            eps = select_epsilon(ts, TournamentConfig(), self.DETECTION_H,
                                 0.5, substream(2000 + i, 0))
            if 0.05 <= eps <= 0.2:
                hits += 1
        assert hits >= int(0.8 * self.TRIALS)

    def test_clean_training_stays_low(self):
        hits = 0
        for i in range(self.TRIALS):
            ts = clean_training(3000 + i)
            eps = select_epsilon(ts, TournamentConfig(), self.DETECTION_H,
                                 0.08, substream(4000 + i, 0))
            if eps <= 0.05:
                hits += 1
        assert hits >= int(0.8 * self.TRIALS)


class TestRejections:
    SERIES = TimeSeries(np.arange(100.0))

    @pytest.mark.parametrize("call, error, match", [
        pytest.param(lambda: tournament(
            TestRejections.SERIES, TournamentConfig(), detection_h=1,
            delta=0.05, rng=substream(0, 0)),
            ValueError, "detection_h must be >= 2", id="detection_h_one"),
        pytest.param(lambda: tournament(
            TestRejections.SERIES, TournamentConfig(training_range=(0, 50)),
            detection_h=10, delta=0.0, rng=substream(0, 0)),
            ValueError, r"delta must lie in \(0, 1\)", id="delta_zero"),
        pytest.param(lambda: tournament(
            TestRejections.SERIES, TournamentConfig(training_range=(0, 50)),
            detection_h=10, delta=1.0, rng=substream(0, 0)),
            ValueError, r"delta must lie in \(0, 1\)", id="delta_one"),
        # a 3-point slice drops its odd point; at delta 0.99 level 0 is
        # feasible, so the size check is what refuses it
        pytest.param(lambda: tournament(
            TestRejections.SERIES,
            TournamentConfig(grid=(0.0,), training_range=(0, 3)),
            detection_h=2, delta=0.99, rng=substream(0, 0)),
            ValueError, "training window must hold >= 4 values",
            id="training_window_two"),
        pytest.param(lambda: default_grid(1), ValueError,
                     "grid size must be >= 2", id="grid_size_one"),
        pytest.param(lambda: TournamentConfig(training_range=(0, 300.5)),
                     ValueError,
                     "training range stop must be an integer, not 300.5",
                     id="training_stop_fraction"),
    ])
    def test_documented_rejection(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
