"""Tests for the contamination-level tournament."""

import numpy as np
import pytest

from arc_cpd import (
    NoFeasibleCandidate,
    RumeParams,
    TimeSeries,
    rume,
    substream,
)
from arc_cpd.tune import (
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


class TestPairwiseTest:
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

    def test_estimates_follow_named_streams(self):
        # candidate j is rume on substream(rng.child_seed(), j), bit for bit
        ts, delta = contaminated_training(21), 1.0 / 5000.0
        rng = substream(9, 0)
        res = tournament(ts, TournamentConfig(), 170, delta, rng)
        assert not all(res.feasible)
        base = rng.child_seed()
        for j, ok in enumerate(res.feasible):
            if ok:
                out = rume(ts.values, RumeParams(default_grid()[j], delta),
                           substream(base, j))
                assert bits(out.estimate) == bits(res.estimates[j])
        # one more, infeasible level moves no other candidate's estimate
        wider = TournamentConfig(grid=default_grid() + (0.45,))
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
