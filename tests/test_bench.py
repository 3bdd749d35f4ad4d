"""Tests for the Monte-Carlo harness, the baseline control, and serialization."""

import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from arc_cpd import (
    CleanSteps,
    AttackSpec,
    DetectionConfig,
    InfeasibleWindow,
    LambdaResolutionFailure,
    NonFiniteScan,
    SeriesTooShort,
    TimeSeries,
    generate,
)
from arc_cpd.bench import (
    BENCH_CSV_HEADER,
    BenchRow,
    ExperimentGrid,
    baseline_scan,
    preset_table_d1,
    preset_table_sensitivity,
    phase_sweep,
    rows_to_csv,
    rows_to_json,
    run_grid,
)
from arc_cpd.detector import SimulationDefaultLambda


def modal_k(row: BenchRow) -> int:
    return max(row.khat_histogram, key=lambda k: (row.khat_histogram[k], -k))


class TestBaselineScan:
    def test_curve_is_window_mean_gap(self):
        g = np.random.default_rng(0)
        x = g.normal(0.0, 1.0, 48)
        cfg = DetectionConfig(h=6, epsilon=0.0,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=1.0)
        rep = baseline_scan(TimeSeries(x), cfg)
        assert sorted(rep.scan_curve) == list(range(12, 37))
        for j, v in rep.scan_curve.items():
            expect = abs(x[j:j + 12].mean() - x[j - 12:j].mean())
            assert v == pytest.approx(expect, abs=1e-12)

    def test_threshold_formula(self):
        g = np.random.default_rng(1)
        cfg = DetectionConfig(h=50, epsilon=0.0,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=2.0)
        rep = baseline_scan(TimeSeries(g.normal(0, 2, 800)), cfg)
        assert rep.lambda_used == pytest.approx(
            3.0 * 2.0 * math.sqrt(math.log(800) / 50))

    def test_clean_step_power(self):
        # a five-sigma jump is found within 2h essentially always
        hits = 0
        for seed in range(20):
            spec = AttackSpec(CleanSteps(means=(0.0, 5.0), truth=(200,)),
                              400, seed=seed)
            ls = generate(spec)
            cfg = DetectionConfig(h=25, epsilon=0.0,
                                  lambda_policy=SimulationDefaultLambda(),
                                  sigma=1.0)
            est = baseline_scan(ls.series, cfg).estimated
            if est.k == 1 and abs(est.locations[0] - 200) <= 50:
                hits += 1
        assert hits == 20

    def test_constant_clean_quiet(self):
        hits = 0
        for seed in range(40):
            g = np.random.default_rng(seed)
            cfg = DetectionConfig(h=50, epsilon=0.0,
                                  lambda_policy=SimulationDefaultLambda(),
                                  sigma=1.0)
            est = baseline_scan(TimeSeries(g.normal(0, 1, 800)), cfg)
            hits += (est.estimated.k == 0)
        assert hits >= 38

    def test_fooled_by_mean_shifting_contamination(self):
        # the adversarial atoms move E[Y] by -+3 sigma eps per half; with a
        # wide window the classical threshold drops below that jump
        hits = 0
        for seed in range(30):
            from arc_cpd import Spurious
            spec = AttackSpec(Spurious(epsilon=0.1, blocks=1, sigma=1.0),
                              2000, seed=seed)
            ls = generate(spec)
            cfg = DetectionConfig(h=400, epsilon=0.0,
                                  lambda_policy=SimulationDefaultLambda(),
                                  sigma=1.0)
            hits += (baseline_scan(ls.series, cfg).estimated.k >= 1)
        assert hits >= 27

    def test_too_short(self):
        cfg = DetectionConfig(h=30, epsilon=0.0,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=1.0)
        with pytest.raises(SeriesTooShort):
            baseline_scan(TimeSeries(np.zeros(100)), cfg)

    def test_auto_sigma_failure_is_reported(self):
        # the same scale step as detect: a zero MAD cannot set lambda
        cfg = DetectionConfig(h=30, epsilon=0.0,
                              lambda_policy=SimulationDefaultLambda())
        with pytest.raises(LambdaResolutionFailure):
            baseline_scan(TimeSeries(np.full(400, 7.0)), cfg)

    def test_overflowing_sums_raise(self):
        # the running sum overflows at the 180th point, so later window
        # sums are inf or inf - inf; no such curve or detection comes back
        x = np.concatenate([np.full(500, 1e306), np.full(500, 5e306)])
        cfg = DetectionConfig(h=20, epsilon=0.0,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=1e305)
        with pytest.raises(NonFiniteScan) as exc:
            baseline_scan(TimeSeries(x), cfg)
        assert exc.value.scan_index == 140

    def test_deterministic(self):
        g = np.random.default_rng(5)
        ts = TimeSeries(g.normal(0, 1, 600))
        cfg = DetectionConfig(h=40, epsilon=0.0,
                              lambda_policy=SimulationDefaultLambda(),
                              sigma=1.0)
        assert baseline_scan(ts, cfg) == baseline_scan(ts, cfg)


class TestExperimentGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentGrid(preset="spurious", n=1000, reps=0)
        with pytest.raises(ValueError):
            ExperimentGrid(preset="spurious", n=1000, methods=("pelt",))
        with pytest.raises(ValueError):
            ExperimentGrid(preset="spurious", n=1000, lambda_policy="fixed")
        with pytest.raises(ValueError):
            ExperimentGrid(preset="spurious", n=1000, windows=())
        with pytest.raises(ValueError):
            ExperimentGrid(preset="spurious", n=1000, explicit_cells=())

    def test_cells_product_order(self):
        grid = ExperimentGrid(preset="spurious", n=1000,
                              epsilons=(0.1, 0.2), windows=(100, 200),
                              reps=1)
        cells = grid.cells()
        combos = [(c.epsilon, c.window) for c in cells]
        assert combos == [(0.1, 100), (0.1, 200), (0.2, 100), (0.2, 200)]
        assert [c.index for c in cells] == [0, 1, 2, 3]

    def test_explicit_cells_preserved(self):
        grid = ExperimentGrid(preset="spurious", n=1000, reps=1,
                              explicit_cells=((0.2, 1, None, 5.0, 120),
                                              (0.1, 2, None, 1.0, 80)))
        cells = grid.cells()
        assert (cells[0].epsilon, cells[0].sigma) == (0.2, 5.0)
        assert (cells[1].blocks, cells[1].window) == (2, 80)

    def test_lists_and_integer_types_accepted(self):
        # Python lists and numpy integers pass the type checks
        grid = ExperimentGrid(preset="spurious", n=np.int64(1000),
                              epsilons=[0.1], windows=[100, np.int32(200)],
                              reps=np.int32(2), methods=["arc", "baseline"],
                              master_seed=np.uint64(7))
        assert [c.window for c in grid.cells()] == [100, 200]


class TestRunGrid:
    def test_reproducible_and_thread_invariant(self):
        grid = ExperimentGrid(preset="spurious", n=1200,
                              epsilons=(0.0, 0.1), blocks=(1,),
                              sigmas=(1.0,), windows=(80,), reps=3,
                              methods=("arc", "baseline"), master_seed=9)
        a = rows_to_csv(run_grid(grid, threads=1))
        b = rows_to_csv(run_grid(grid, threads=1))
        c = rows_to_csv(run_grid(grid, threads=2))
        assert a == b == c
        # one worker process per cell, and more workers than cells
        jsons = {rows_to_json(run_grid(grid, threads=k)) for k in (1, 2, 3)}
        # with another thread running, the workers are spawned, not forked
        with ThreadPoolExecutor(max_workers=1) as pool:
            jsons.add(pool.submit(lambda: rows_to_json(
                run_grid(grid, threads=2))).result(timeout=300))
        assert len(jsons) == 1

    def test_threads_validated(self):
        grid = ExperimentGrid(preset="spurious", n=1200, reps=1)
        with pytest.raises(ValueError):
            run_grid(grid, threads=0)

    def test_clean_preset_trivial_recovery(self):
        grid = ExperimentGrid(preset="clean", n=5000, windows=(340,),
                              reps=10, methods=("arc",), master_seed=1)
        row = run_grid(grid)[0]
        assert row.skipped is None
        assert row.mean_count_error == 0.0
        assert row.median_scaled_dh <= 0.02
        assert sum(row.khat_histogram.values()) == 10

    def test_spurious_attack_contrast(self):
        # the robust scan ignores the mean-shifting atoms the classical
        # scan is built to chase
        grid = ExperimentGrid(preset="spurious", n=2000, epsilons=(0.1,),
                              blocks=(1,), sigmas=(1.0,), windows=(800,),
                              reps=10, methods=("arc", "baseline"),
                              master_seed=2)
        rows = {r.method: r for r in run_grid(grid)}
        assert rows["arc"].mean_count_error < rows["baseline"].mean_count_error
        assert rows["arc"].hist_k_eq_K >= 8

    def test_hiding_attack_contrast(self):
        # contamination cancels the clean mean jumps exactly, blinding the
        # classical scan; trimming restores them
        grid = ExperimentGrid(preset="hiding", n=5000, epsilons=(0.2,),
                              blocks=(2,), kappas=(1.2,), windows=(340,),
                              reps=10, methods=("arc", "baseline"),
                              master_seed=5, lambda_policy="theoretical",
                              c_lambda=2.0)
        rows = {r.method: r for r in run_grid(grid)}
        assert modal_k(rows["arc"]) == 3
        assert modal_k(rows["baseline"]) == 0
        for row in rows.values():
            assert sum(row.khat_histogram.values()) == 10

    def test_signed_error_and_histogram_consistency(self):
        grid = ExperimentGrid(preset="spurious", n=1200, epsilons=(0.1,),
                              blocks=(1,), sigmas=(1.0,), windows=(80,),
                              reps=5, methods=("arc",), master_seed=4)
        row = run_grid(grid)[0]
        ks = [k for k, c in row.khat_histogram.items() for _ in range(c)]
        assert row.mean_signed_k_error == pytest.approx(np.mean(ks))
        assert row.mean_count_error == pytest.approx(np.mean(np.abs(ks)))
        assert row.hist_k_eq_K == row.khat_histogram.get(0, 0)

    def test_infeasible_cell_skipped(self):
        # 4h exceeds n, so every repetition dies and the row carries the
        # reason with empty aggregates
        grid = ExperimentGrid(preset="spurious", n=400, epsilons=(0.1,),
                              blocks=(1,), sigmas=(1.0,), windows=(340,),
                              reps=2, methods=("arc",), master_seed=0)
        row = run_grid(grid)[0]
        assert row.skipped is not None
        assert math.isnan(row.mean_count_error)
        assert row.khat_histogram == {}

    def test_aarc_method_runs(self):
        grid = ExperimentGrid(preset="spurious", n=1500, epsilons=(0.1,),
                              blocks=(1,), sigmas=(1.0,), windows=(340,),
                              reps=2, methods=("aarc",), master_seed=6)
        row = run_grid(grid)[0]
        assert row.skipped is None
        assert math.isfinite(row.mean_count_error)
        assert sum(row.khat_histogram.values()) == 2

    def test_rows_independent_of_fan_out(self):
        # each (cell, method) row is one job; a skipped cell (4h > n) next
        # to a live one gives the same rows at any worker count
        grid = ExperimentGrid(preset="spurious", n=400, epsilons=(0.1,),
                              blocks=(1,), sigmas=(1.0,), windows=(80, 340),
                              reps=2, methods=("arc", "aarc", "baseline"),
                              master_seed=0)
        rows = run_grid(grid)
        assert [r.skipped is None for r in rows] == [True] * 3 + [False] * 3
        assert [(r.window, r.method) for r in rows] == [
            (w, m) for w in (80, 340) for m in ("arc", "aarc", "baseline")]
        assert len({rows_to_json(run_grid(grid, threads=k))
                    for k in (1, 2, 3)}) == 1

    def test_one_cell_fans_out_by_method(self):
        grid = ExperimentGrid(preset="spurious", n=1200, epsilons=(0.1,),
                              blocks=(1,), sigmas=(1.0,), windows=(80,),
                              reps=2, methods=("arc", "aarc", "baseline"),
                              master_seed=4)
        one = run_grid(grid, threads=1)
        assert all(r.skipped is None for r in one)
        assert rows_to_json(run_grid(grid, threads=2)) == rows_to_json(one)


class TestSerialization:
    def test_header_frozen(self):
        assert BENCH_CSV_HEADER == (
            "preset,n,epsilon,delta_blocks,kappa,sigma,window,method,"
            "mean_count_error,sd_count_error,median_scaled_dh,"
            "sd_scaled_dh,hist_k_eq_K,hist_k_eq_2D1,excluded_inf")

    def _row(self, **overrides):
        base = dict(preset="spurious", n=5000, epsilon=0.05, delta_blocks=1,
                    kappa=None, sigma=1.0, window=340, method="arc",
                    reps=100, mean_count_error=0.123456789,
                    sd_count_error=math.nan, median_scaled_dh=math.inf,
                    sd_scaled_dh=0.5, mean_scaled_dh=1.0,
                    mean_signed_k_error=-0.25, hist_k_eq_K=85,
                    hist_k_eq_2D1=15, khat_histogram={0: 85, 1: 15},
                    excluded_inf=2)
        base.update(overrides)
        return BenchRow(**base)

    def test_csv_line_format(self):
        text = rows_to_csv([self._row()])
        lines = text.strip().split("\n")
        assert lines[0] == BENCH_CSV_HEADER
        assert lines[1] == ("spurious,5000,0.05,1,,1,340,arc,"
                            "0.123457,nan,inf,0.5,85,15,2")

    def test_csv_field_count(self):
        text = rows_to_csv([self._row()])
        for line in text.strip().split("\n"):
            assert len(line.split(",")) == 15

    def test_json_round_trip(self):
        payload = json.loads(rows_to_json([self._row()]))
        assert len(payload) == 1
        row = payload[0]
        assert row["preset"] == "spurious"
        assert row["sd_count_error"] == "nan"
        assert row["median_scaled_dh"] == "inf"
        assert row["khat_histogram"] == {"0": 85, "1": 15}
        assert row["mean_signed_k_error"] == -0.25

    def test_negative_infinity_rendering(self):
        text = rows_to_csv([self._row(median_scaled_dh=-math.inf)])
        assert ",-inf," in text.strip().split("\n")[1]


class TestPhaseSweep:
    def test_validation(self):
        with pytest.raises(ValueError):
            phase_sweep(1000, 300, 0.05, [1.0], reps=5)
        with pytest.raises(ValueError):
            phase_sweep(1200, 300, 0.05, [1.0], reps=0)

    def test_power_separation(self):
        # jumps far below the detectability boundary are missed, far above
        # it they are recovered exactly
        thr = math.sqrt(max(0.05, math.log(1200) / 300))
        out = phase_sweep(1200, 300, 0.05, [0.05 * thr, 5 * thr], reps=20,
                          master_seed=3)
        assert [k for k, _ in out] == pytest.approx([0.05 * thr, 5 * thr])
        lo, hi = out[0][1], out[1][1]
        assert 0.0 <= lo <= 0.2
        assert hi >= 0.5
        assert all(0.0 <= r <= 1.0 for _, r in out)

    def test_deterministic_and_thread_invariant(self):
        thr = math.sqrt(max(0.05, math.log(1200) / 300))
        grid = [0.5 * thr, 2 * thr]
        a = phase_sweep(1200, 300, 0.05, grid, reps=5, master_seed=8,
                        threads=1)
        b = phase_sweep(1200, 300, 0.05, grid, reps=5, master_seed=8,
                        threads=2)
        assert a == b

    def test_worker_error_arrives_typed(self):
        # epsilon 0.3 leaves auto_delta no feasible level, inside each cell
        errors = []
        for threads in (1, 2):
            with pytest.raises(InfeasibleWindow) as exc:
                phase_sweep(1200, 300, 0.3, [1.0, 2.0], reps=1,
                            threads=threads)
            errors.append(exc.value)
        one, two = errors
        assert type(two) is InfeasibleWindow
        assert str(one) == str(two)
        assert vars(one) == vars(two)


class TestPresetGrids:
    def test_table_d1_shape(self):
        grid = preset_table_d1(reps=100, master_seed=0)
        cells = grid.cells()
        assert len(cells) == 21
        assert (cells[0].epsilon, cells[0].blocks, cells[0].sigma) == \
            (0.0, 1, 1.0)
        assert all(c.window == 340 for c in cells)
        assert grid.n == 5000
        assert grid.methods == ("arc", "aarc")

    def test_sensitivity_shape(self):
        grids = preset_table_sensitivity(reps=100)
        assert len(grids) == 3
        assert {g.preset for g in grids} == {"hiding", "spurious"}
        for g in grids:
            assert tuple(sorted({c.window for c in g.cells()})) == \
                (85, 170, 255, 340, 511)


class TestRejections:
    @pytest.mark.parametrize("call, error, match", [
        pytest.param(lambda: ExperimentGrid(preset="spurious", n=1000,
                                            methods=()),
                     ValueError, "methods must be nonempty", id="no_methods"),
        # a string c_lambda raised a TypeError inside the first row
        pytest.param(lambda: ExperimentGrid(
            preset="hiding", n=2000, windows=(170,), reps=1,
            lambda_policy="theoretical", c_lambda="2"), ValueError,
            "c_lambda must be positive and finite, not '2'",
            id="c_lambda_string"),
        pytest.param(lambda: ExperimentGrid(
            preset="hiding", n=2000, windows=(170,), reps=1,
            lambda_policy="theoretical", c_lambda=True), ValueError,
            "c_lambda must be positive and finite, not True",
            id="c_lambda_bool"),
        # each of these failed only inside the first row, in a worker
        # process under threads > 1
        pytest.param(lambda: ExperimentGrid(
            preset="spurious", n=1200, windows=(80,), reps=1,
            master_seed=-1), ValueError,
            "master_seed must fit in 64 unsigned bits, not -1",
            id="grid_negative_master_seed"),
        pytest.param(lambda: ExperimentGrid(
            preset="spurious", n=1, windows=(80,), reps=1), ValueError,
            "n must be >= 2, not 1", id="grid_n_one"),
        pytest.param(lambda: ExperimentGrid(
            preset="spurious", n=1200, windows=(80,), reps=1,
            methods=("aarc",), training_points=1), ValueError,
            "training_points must be >= 2, not 1",
            id="grid_one_training_point"),
        # these failed with SpecInvalid inside the first row
        pytest.param(lambda: ExperimentGrid(
            preset="bogus", n=1200, windows=(80,), reps=1), ValueError,
            "unknown grid preset 'bogus'; choose from spurious, hiding, "
            "sine, cauchy, clean", id="grid_unknown_preset"),
        pytest.param(lambda: ExperimentGrid(
            preset="corrupt-beijing", n=1200, windows=(80,), reps=1),
            ValueError, "unknown grid preset 'corrupt-beijing'",
            id="grid_preset_needs_base"),
        # each of these ran, and its rows reported a value the preset had
        # dropped
        pytest.param(lambda: ExperimentGrid(
            preset="hiding", n=1200, windows=(80,), reps=1, sigmas=(5.0,)),
            ValueError, "sigmas entry must be null for preset 'hiding', "
            "not 5.0", id="grid_hiding_sigma"),
        pytest.param(lambda: ExperimentGrid(
            preset="spurious", n=1200, windows=(80,), reps=1,
            kappas=(None, 2.0)), ValueError,
            "kappas entry must be null for preset 'spurious', not 2.0",
            id="grid_spurious_kappa"),
        pytest.param(lambda: ExperimentGrid(
            preset="sine", n=1200, windows=(80,), reps=1, blocks=(2,)),
            ValueError, "blocks entry must be null for preset 'sine'",
            id="grid_sine_blocks"),
        pytest.param(lambda: ExperimentGrid(
            preset="cauchy", n=1200, windows=(80,), reps=1, blocks=(2,)),
            ValueError, "blocks entry must be null for preset 'cauchy'",
            id="grid_cauchy_blocks"),
        pytest.param(lambda: ExperimentGrid(
            preset="clean", n=1200, windows=(80,), reps=1,
            epsilons=(0.1,), kappas=(3.0,)), ValueError,
            "epsilons entry must be null for preset 'clean', not 0.1",
            id="grid_clean_epsilon"),
        pytest.param(lambda: ExperimentGrid(
            preset="clean", n=1200, windows=(80,), reps=1, blocks=(1,)),
            ValueError, "blocks entry must be null for preset 'clean'",
            id="grid_clean_blocks"),
        pytest.param(lambda: ExperimentGrid(
            preset="hiding", n=1200, reps=1,
            explicit_cells=((0.1, 2, 1.0, None, 80),
                            (0.1, 2, 1.0, 2.0, 80))), ValueError,
            r"explicit_cells\[1\] sigma must be null for preset 'hiding', "
            "not 2.0", id="grid_explicit_hiding_sigma"),
        # with no kappa to run this returned [] before
        pytest.param(lambda: phase_sweep(2000, 200, 0.1, (), 1,
                                         master_seed=-1), ValueError,
                     "master_seed must fit in 64 unsigned bits, not -1",
                     id="phase_negative_master_seed"),
    ])
    def test_documented_rejection(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
