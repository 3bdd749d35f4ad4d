"""Scan statistic, maximizer extraction, thresholding, and aggregation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arc_cpd import detector
from arc_cpd import (
    DetectionConfig,
    InfeasibleWindow,
    LambdaResolutionFailure,
    ManualLambda,
    NonFiniteScan,
    RealDataHeavyTailLambda,
    RealDataLambda,
    SeriesTooShort,
    SimulationDefaultLambda,
    TheoreticalLambda,
    TimeSeries,
    build_preset,
    detect,
    detect_repeated,
    generate,
    local_maximizers,
    recommend_h,
    resolve_lambda,
    scan_statistic,
    substream,
)


def hiding_setting(seed, n=5000, epsilon=0.1, kappa=1.0):
    spec = build_preset("hiding", n=n, epsilon=epsilon, delta_blocks=2,
                        kappa=kappa, seed=seed)
    return generate(spec)


class TestResolveLambda:
    kwargs = dict(sigma=2.0, epsilon=0.1, epsilon_eff=0.16, h=100, n=5000)

    def test_manual(self):
        assert resolve_lambda(ManualLambda(3.5), **self.kwargs) == 3.5

    def test_manual_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ManualLambda(0.0)

    def test_theoretical(self):
        want = 3.0 * 2.0 * math.sqrt(0.16)
        assert resolve_lambda(TheoreticalLambda(3.0), **self.kwargs) == \
            pytest.approx(want)

    def test_simulation_default(self):
        # max(0.6*2, 8*2*0.1) = max(1.2, 1.6)
        assert resolve_lambda(SimulationDefaultLambda(), **self.kwargs) == \
            pytest.approx(1.6)

    def test_real_data(self):
        base = 1.2 * 2.0 * math.sqrt(5.0 * math.log(5000) / 100)
        assert resolve_lambda(RealDataLambda(), **self.kwargs) == \
            pytest.approx(max(base, 1.6))

    def test_real_data_heavy_tail(self):
        base = 1.2 * 2.0 * math.sqrt(5.0 * math.log(5000) / 100)
        want = max(base, 8.0 * 2.0 * math.sqrt(0.1))
        assert resolve_lambda(RealDataHeavyTailLambda(), **self.kwargs) == \
            pytest.approx(want)


class TestScanStatistic:
    def test_constant_series_is_identically_zero(self):
        cfg = DetectionConfig(h=6, epsilon=0.0, lambda_policy=ManualLambda(1.0),
                              delta=0.6, sigma=1.0)
        curve = scan_statistic(TimeSeries(np.full(48, 3.0)), cfg)
        assert set(curve) == set(range(12, 37))
        assert all(v == 0.0 for v in curve.values())

    def test_noiseless_step_gives_exact_jump(self):
        kappa = 2.5
        x = np.concatenate([np.zeros(24), np.full(24, kappa)])
        cfg = DetectionConfig(h=6, epsilon=0.0, lambda_policy=ManualLambda(1.0),
                              delta=0.6, sigma=1.0)
        curve = scan_statistic(TimeSeries(x), cfg)
        assert curve[24] == kappa

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_finite_for_magnitudes_up_to_8e307(self, data):
        h = data.draw(st.integers(8, 12))
        n = data.draw(st.integers(4 * h, 4 * h + 8))
        x = data.draw(st.lists(
            st.one_of(st.floats(-8e307, 8e307),
                      st.sampled_from([-8e307, 8e307])),
            min_size=n, max_size=n))
        cfg = DetectionConfig(h=h, epsilon=0.0, lambda_policy=ManualLambda(1.0),
                              delta=0.5, sigma=1.0,
                              seed=data.draw(st.integers(0, 1000)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = scan_statistic(TimeSeries(np.asarray(x)), cfg)
        assert np.isfinite(list(curve.values())).all()

    def test_too_short_series_rejected(self):
        cfg = DetectionConfig(h=20, epsilon=0.0, lambda_policy=ManualLambda(1.0),
                              delta=0.5, sigma=1.0)
        with pytest.raises(SeriesTooShort):
            scan_statistic(TimeSeries(np.zeros(50)), cfg)

    def test_jump_statistic_clears_default_threshold(self):
        # two-block mean shift with a tenth of the points replaced by a
        # mean-hiding atom; the statistic near every true change point must
        # beat max(0.6, 0.8) = 0.8 essentially always at this window width
        lam = 0.8
        good = 0
        for seed in range(20):
            ls = hiding_setting(seed)
            cfg = DetectionConfig(h=170, epsilon=0.1,
                                  lambda_policy=SimulationDefaultLambda(),
                                  sigma=1.0, seed=1000 + seed)
            curve = scan_statistic(ls.series, cfg)
            ok = True
            for t in ls.truth_f.locations:
                window = [curve[j] for j in range(t - 340, t + 341) if j in curve]
                ok = ok and max(window) > lam
            good += ok
        assert good >= 19


def brute_local_max(values, radius):
    n = len(values)
    keep = []
    for j in range(n):
        lo = max(0, j - radius + 1)
        hi = min(n, j + radius)
        if all(values[j] >= values[t] for t in range(lo, hi)):
            keep.append(j)
    kept_set = set(keep)
    return [j for j in keep
            if not (j - 1 in kept_set and values[j - 1] == values[j])]


class TestLocalMaximizers:
    def test_direct_example(self):
        curve = {1: 1.0, 2: 3.0, 3: 2.0, 4: 0.0, 5: 5.0, 6: 1.0}
        assert local_maximizers(curve, 2) == [2, 5]

    def test_strictly_increasing_keeps_last(self):
        for radius in (2, 5, 11):
            assert local_maximizers(list(range(30)), radius) == [29]

    def test_radius_one_neighborhood_is_trivial(self):
        # the open interval (j-1, j+1) contains only j itself, so every
        # index qualifies on a strictly increasing curve
        assert local_maximizers(list(range(5)), 1) == [0, 1, 2, 3, 4]

    def test_plateau_keeps_leftmost(self):
        assert local_maximizers([0.0, 5.0, 5.0, 5.0, 0.0], 3) == [1]

    def test_separated_ties_both_survive(self):
        assert local_maximizers([5.0, 0.0, 5.0], 2) == [0, 2]

    def test_matches_brute_force(self):
        g = substream(91, 0).generator()
        for _ in range(2000):
            n = int(g.integers(1, 60))
            values = g.integers(0, 6, n).astype(np.float64)
            radius = int(g.integers(1, 9))
            assert local_maximizers(values, radius) == \
                brute_local_max(values, radius)

    def test_noncontiguous_mapping_rejected(self):
        with pytest.raises(ValueError):
            local_maximizers({1: 1.0, 3: 2.0}, 2)

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            local_maximizers([1.0, 2.0], 0)


class TestDetect:
    def test_constant_series_reports_zero(self):
        cfg = DetectionConfig(h=100, epsilon=0.1,
                              lambda_policy=ManualLambda(0.5), sigma=1.0)
        rep = detect(TimeSeries(np.full(2000, 7.0)), cfg)
        assert rep.estimated.k == 0
        assert rep.degenerate_windows == 0

    def test_report_invariant_locations_exceed_lambda(self):
        ls = hiding_setting(3)
        cfg = DetectionConfig(h=170, epsilon=0.1,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=1.0, seed=5)
        rep = detect(ls.series, cfg)
        assert rep.estimated.k > 0
        for t in rep.estimated.locations:
            assert rep.scan_curve[t] > rep.lambda_used

    def test_empty_output_soundness(self):
        g = substream(17, 0).generator()
        cfg = DetectionConfig(h=50, epsilon=0.05,
                              lambda_policy=ManualLambda(50.0), sigma=1.0)
        rep = detect(TimeSeries(g.normal(0, 1, 1000)), cfg)
        assert max(rep.scan_curve.values()) <= 50.0
        assert rep.estimated.k == 0

    def test_infeasible_config_raises_with_scan_index(self):
        cfg = DetectionConfig(h=20, epsilon=0.2,
                              lambda_policy=ManualLambda(1.0), sigma=1.0)
        with pytest.raises(InfeasibleWindow) as exc:
            detect(TimeSeries(np.arange(200, dtype=np.float64)), cfg)
        assert exc.value.scan_index == 40

    def test_near_float_max_step(self):
        # plain window sums of these values overflow; the scan must stay
        # finite and find the one step
        g = np.random.default_rng(0)
        x = np.concatenate([0.5e308 + g.normal(0, 1e300, 500),
                            0.9e308 + g.normal(0, 1e300, 500)])
        cfg = DetectionConfig(h=20, epsilon=0.05, delta=0.05,
                              lambda_policy=ManualLambda(1e307), sigma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = detect(TimeSeries(x), cfg)
        assert np.isfinite(list(rep.scan_curve.values())).all()
        assert rep.estimated.k == 1
        assert abs(rep.estimated.locations[0] - 500) <= 2 * cfg.h

    def test_means_straddling_float_max_raise(self):
        # each window mean is finite, but right - left overflows to inf
        # near the step; no curve, no detection, no numpy warning
        g = np.random.default_rng(0)
        x = np.concatenate([-1e308 + g.normal(0, 1, 200),
                            1e308 + g.normal(0, 1, 200)])
        cfg = DetectionConfig(h=20, epsilon=0.05, delta=0.05,
                              lambda_policy=ManualLambda(1e307), sigma=1.0)
        for scan in (detect, scan_statistic):
            with pytest.raises(NonFiniteScan) as exc:
                scan(TimeSeries(x), cfg)
            assert exc.value.scan_index == 185
            assert "scan index 185" in str(exc.value)

    def test_auto_sigma_failure_is_reported(self):
        cfg = DetectionConfig(h=100, epsilon=0.1,
                              lambda_policy=SimulationDefaultLambda())
        with pytest.raises(LambdaResolutionFailure):
            detect(TimeSeries(np.full(2000, 7.0)), cfg)

    def test_localization_on_hidden_steps(self):
        truth = (1250, 2500, 3750)
        exact = 0
        for seed in range(30):
            ls = hiding_setting(seed + 100)
            cfg = DetectionConfig(h=170, epsilon=0.1,
                                  lambda_policy=SimulationDefaultLambda(),
                                  sigma=1.0, seed=seed)
            rep = detect(ls.series, cfg)
            if rep.estimated.k == 3:
                err = max(abs(a - b)
                          for a, b in zip(rep.estimated.locations, truth))
                exact += err <= 340
        assert exact >= 27

    def test_flat_mean_contamination_mostly_silent(self):
        # mean-preserving contamination should not manufacture detections
        flagged = []
        for seed in range(20):
            spec = build_preset("spurious", n=5000, epsilon=0.1,
                                delta_blocks=1, sigma=1.0, seed=seed + 40)
            ls = generate(spec)
            cfg = DetectionConfig(h=170, epsilon=0.1,
                                  lambda_policy=SimulationDefaultLambda(),
                                  sigma=1.0, seed=seed)
            flagged.append(detect(ls.series, cfg).estimated.k)
        assert sum(flagged) / len(flagged) <= 0.7

    def test_affine_equivariance_of_detected_set(self):
        g = substream(55, 0).generator()
        x = np.concatenate([g.normal(0, 1, 120), g.normal(3, 1, 120)])
        cfg = DetectionConfig(h=15, epsilon=0.0,
                              lambda_policy=ManualLambda(1.0),
                              delta=0.5, sigma=1.0, seed=9)
        base = detect(TimeSeries(x), cfg)
        moved = detect(
            TimeSeries(2.0 * x - 5.0),
            DetectionConfig(h=15, epsilon=0.0,
                            lambda_policy=ManualLambda(2.0),
                            delta=0.5, sigma=2.0, seed=9),
        )
        assert moved.estimated == base.estimated

    def test_monotone_in_lambda(self):
        ls = hiding_setting(11, n=2000)
        locs = {}
        for lam in (0.3, 0.6, 1.2):
            cfg = DetectionConfig(h=120, epsilon=0.1,
                                  lambda_policy=ManualLambda(lam),
                                  sigma=1.0, seed=2)
            locs[lam] = set(detect(ls.series, cfg).estimated.locations)
        assert locs[1.2] <= locs[0.6] <= locs[0.3]

    def test_reversed_series_reflects_detections(self):
        g = substream(56, 0).generator()
        x = np.concatenate([g.normal(0, 1, 150), g.normal(4, 1, 130),
                            g.normal(0, 1, 120)])
        n = x.size
        cfg = DetectionConfig(h=20, epsilon=0.0,
                              lambda_policy=ManualLambda(1.5),
                              delta=0.5, sigma=1.0, seed=77)
        fwd = detect(TimeSeries(x), cfg)
        # detect's own steps on the reversed series with mirrored stream ids
        rev_series = TimeSeries(x[::-1])
        rev = detector._scan_report(
            rev_series, cfg, lambda sigma: 1.5,
            lambda: detector._scan_arrays(rev_series, cfg, mirror_ids=True),
            0.0)
        assert all(rev.scan_curve[j] == fwd.scan_curve[n - j]
                   for j in rev.scan_curve)
        assert fwd.estimated.k == rev.estimated.k
        reflected = sorted(n - t for t in rev.estimated.locations)
        for a, b in zip(sorted(fwd.estimated.locations), reflected):
            assert abs(a - b) <= 1

    def test_determinism(self):
        ls = hiding_setting(12, n=2000)
        cfg = DetectionConfig(h=120, epsilon=0.1,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=1.0, seed=3)
        assert detect(ls.series, cfg) == detect(ls.series, cfg)


class TestDetectRepeated:
    def test_single_run_wraps_detect(self):
        ls = hiding_setting(21, n=2000)
        cfg = DetectionConfig(h=120, epsilon=0.1,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=1.0, seed=6)
        agg = detect_repeated(ls.series, cfg, 1)
        assert agg.runs == 1
        assert len(agg.per_run) == 1
        assert agg.modal_k == agg.per_run[0].k_hat
        assert agg.consensus_locations.locations == agg.per_run[0].locations

    def test_constant_series_aggregates_to_zero(self):
        cfg = DetectionConfig(h=100, epsilon=0.1,
                              lambda_policy=ManualLambda(0.5), sigma=1.0)
        agg = detect_repeated(TimeSeries(np.full(2000, 1.0)), cfg, 20)
        assert agg.modal_k == 0
        assert agg.khat_histogram == {0: 20}
        assert agg.consensus_locations.k == 0

    def test_histogram_counts_sum_to_runs(self):
        ls = hiding_setting(22, n=2000)
        cfg = DetectionConfig(h=120, epsilon=0.1,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=1.0, seed=8)
        agg = detect_repeated(ls.series, cfg, 15)
        assert sum(agg.khat_histogram.values()) == 15
        top = max(agg.khat_histogram.values())
        assert agg.khat_histogram[agg.modal_k] == top

    def test_consensus_localizes_hidden_steps(self):
        ls = hiding_setting(23)
        cfg = DetectionConfig(h=170, epsilon=0.1,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=1.0, seed=10)
        agg = detect_repeated(ls.series, cfg, 20)
        assert agg.modal_k == 3
        for est, true in zip(agg.consensus_locations.locations,
                             (1250, 2500, 3750)):
            assert abs(est - true) <= 340

    def test_deterministic_given_master_seed(self):
        ls = hiding_setting(24, n=2000)
        cfg = DetectionConfig(h=120, epsilon=0.1,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=1.0, seed=11)
        assert detect_repeated(ls.series, cfg, 5) == \
            detect_repeated(ls.series, cfg, 5)


class TestRecommendH:
    def test_small_epsilon_plugin(self):
        assert recommend_h(5000, 0.05, 1.0, C_prime=1.0, C_lambda=1.0) == \
            (86, 170)

    def test_infeasible_regime(self):
        assert recommend_h(5000, 0.3, 0.5, C_lambda=1.0) is None

    def test_mid_epsilon_growth_factor(self):
        # w(0.2) = 1/(0.5 - sqrt(0.24)) = 98.9898, times log(5000)
        lo, hi = recommend_h(5000, 0.2, 2.0, C_prime=1.0, C_lambda=1.0)
        assert lo == math.floor(98.98979485566398 * math.log(5000)) + 1
        assert hi == 1250

    def test_zero_epsilon_upper_is_series_bound(self):
        lo, hi = recommend_h(5000, 0.0, 1.0, C_prime=1.0, C_lambda=1.0)
        assert hi == 1250
        assert lo == math.floor(10 * math.log(5000)) + 1

    def test_tiny_jump_leaves_no_window(self):
        assert recommend_h(1000, 0.05, 0.01) is None

    def test_sufficient_not_necessary(self):
        # the README quick-start regime has no recommended window, yet
        # h = 170 recovers all three changes there
        assert recommend_h(5000, 0.1, 1.0) is None
        ls = hiding_setting(11)
        cfg = DetectionConfig(h=170, epsilon=0.1,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=1.0, delta=0.05, seed=7)
        est = detect(ls.series, cfg).estimated
        assert est.k == 3
        for e, t in zip(est.locations, ls.truth_f.locations):
            assert abs(e - t) <= 2 * cfg.h
