"""End-to-end tests of the command-line front end."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from arc_cpd.cli import main, read_series
from arc_cpd.simgen import AttackSpec, Hiding, generate


def run(argv):
    """Invoke the CLI in-process; parse failures surface as SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def write_values(path, values):
    path.write_text("\n".join(format(v, ".17g") for v in values) + "\n")
    return str(path)


@pytest.fixture()
def gaussian_file(tmp_path):
    g = np.random.default_rng(0)
    return write_values(tmp_path / "gauss.csv", g.normal(0.0, 1.0, 800))


class TestReadSeries:
    def test_single_column(self, tmp_path):
        path = write_values(tmp_path / "a.csv", [1.5, -2.0, 3.25])
        ts = read_series(path)
        assert list(ts.values) == [1.5, -2.0, 3.25]
        assert ts.name == "a.csv"

    def test_header_line_skipped(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("value\n1.0\n2.0\n")
        assert list(read_series(str(p)).values) == [1.0, 2.0]

    def test_two_column_timestamp_ignored(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("2020-01-01,4.5\n2020-01-02,5.5\n")
        assert list(read_series(str(p)).values) == [4.5, 5.5]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0\n\n2.0\n\n")
        assert list(read_series(str(p)).values) == [1.0, 2.0]

    def test_three_columns_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            read_series(str(p))

    def test_bad_number_mid_file(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1.0\noops\n")
        with pytest.raises(ValueError):
            read_series(str(p))


class TestDetect:
    def test_constant_series_finds_nothing(self, tmp_path):
        data = write_values(tmp_path / "const.csv", [5.0] * 400)
        out = tmp_path / "rep.json"
        code = run(["detect", "--input", data, "--h", "100", "--epsilon",
                    "0.05", "--sigma", "1", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["schema"] == "arc-cpd/report/v1"
        assert rep["result"]["k_hat"] == 0
        assert rep["result"]["change_points"] == []
        assert rep["n"] == 400
        for key in ("h", "epsilon", "delta", "lambda", "sigma", "policy",
                    "maximizer_radius", "seed", "runs"):
            assert key in rep["config"]
        # constant data: the zero-width kept interval still contains every
        # held-out point, so no window falls back to the median
        assert rep["diagnostics"]["degenerate_windows"] == 0

    def test_invalid_h_exits_2(self, gaussian_file):
        assert run(["detect", "--input", gaussian_file, "--h", "0",
                    "--epsilon", "0.1"]) == 2

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["detect", "--input", str(tmp_path / "nope.csv"),
                    "--h", "50", "--epsilon", "0.1"]) == 2

    def test_epsilon_flags_required(self, gaussian_file):
        assert run(["detect", "--input", gaussian_file, "--h", "50"]) == 2

    def test_degenerate_span_exits_3(self, tmp_path):
        g = np.random.default_rng(0)
        data = write_values(tmp_path / "n.csv", g.normal(0, 1, 200))
        code = run(["detect", "--input", data, "--h", "30", "--epsilon",
                    "0.3", "--sigma", "1"])
        assert code == 3

    def test_nonfinite_scan_exits_2(self, tmp_path, capsys):
        g = np.random.default_rng(0)
        data = write_values(tmp_path / "big.csv", np.concatenate(
            [-1e308 + g.normal(0, 1, 200), 1e308 + g.normal(0, 1, 200)]))
        code = run(["detect", "--input", data, "--h", "20", "--epsilon",
                    "0.05", "--delta", "0.05", "--lambda", "1e307",
                    "--sigma", "1"])
        assert code == 2
        assert "scan index 185" in capsys.readouterr().err

    def test_report_deterministic(self, gaussian_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["detect", "--input", gaussian_file, "--h", "60", "--epsilon",
                "0.1", "--sigma", "1", "--seed", "42"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dump_curve(self, gaussian_file, tmp_path):
        curve = tmp_path / "curve.csv"
        code = run(["detect", "--input", gaussian_file, "--h", "60",
                    "--epsilon", "0.1", "--sigma", "1",
                    "--dump-curve", str(curve), "--out",
                    str(tmp_path / "r.json")])
        assert code == 0
        lines = curve.read_text().strip().split("\n")
        assert lines[0] == "index,value"
        # one row per admissible window position
        assert len(lines) - 1 == 800 - 4 * 60 + 1
        first = lines[1].split(",")
        assert int(first[0]) == 120
        float(first[1])

    def test_dump_curve_needs_single_run(self, gaussian_file, tmp_path):
        assert run(["detect", "--input", gaussian_file, "--h", "60",
                    "--epsilon", "0.1", "--sigma", "1", "--runs", "3",
                    "--dump-curve", str(tmp_path / "c.csv")]) == 2

    def test_repeated_runs_report_modal(self, tmp_path):
        ls = generate(AttackSpec(Hiding(epsilon=0.1, blocks=2, kappa=1.0),
                                 5000, seed=3))
        data = write_values(tmp_path / "hide.csv", ls.series.values)
        out = tmp_path / "rep.json"
        code = run(["detect", "--input", data, "--h", "170", "--epsilon",
                    "0.1", "--sigma", "1", "--runs", "5", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["modal_k"] == 3
        assert sum(rep["result"]["khat_histogram"].values()) == 5
        assert rep["config"]["runs"] == 5

    def test_truth_scoring(self, tmp_path):
        prefix = tmp_path / "sim"
        assert run(["simulate", "--preset", "hiding", "--n", "5000",
                    "--epsilon", "0.1", "--delta-blocks", "2", "--kappa",
                    "1", "--seed", "3", "--out", str(prefix)]) == 0
        out = tmp_path / "rep.json"
        code = run(["detect", "--input", str(prefix) + ".csv", "--h", "170",
                    "--epsilon", "0.1", "--sigma", "1", "--truth",
                    str(prefix) + ".truth.json", "--out", str(out)])
        assert code == 0
        m = json.loads(out.read_text())["metrics"]
        assert set(m) == {"hausdorff", "scaled_hausdorff", "count_error",
                          "covering"}
        assert 0.0 <= m["covering"] <= 1.0

    def test_auto_epsilon_reports_tuning(self, tmp_path):
        g = np.random.default_rng(1000)
        v = g.normal(0.0, 1.0, 1000)
        v[g.random(1000) < 0.1] = 10.0
        data = write_values(tmp_path / "contam.csv", v)
        out = tmp_path / "rep.json"
        code = run(["detect", "--input", data, "--h", "150", "--auto-epsilon",
                    "--sigma", "1", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert "tuning" in rep
        assert rep["tuning"]["epsilon_selected"] == rep["config"]["epsilon"]
        assert len(rep["tuning"]["tournament_scores"]) == 201


class TestSimulate:
    def test_hiding_truth_locations(self, tmp_path):
        prefix = tmp_path / "h"
        code = run(["simulate", "--preset", "hiding", "--n", "5000",
                    "--epsilon", "0.1", "--delta-blocks", "2", "--kappa",
                    "1", "--seed", "0", "--out", str(prefix)])
        assert code == 0
        truth = json.loads((tmp_path / "h.truth.json").read_text())
        assert truth["schema"] == "arc-cpd/truth/v1"
        assert truth["truth_F"] == [1250, 2500, 3750]
        assert truth["truth_EY"] == []

    def test_spurious_truth_locations(self, tmp_path):
        prefix = tmp_path / "s"
        assert run(["simulate", "--preset", "spurious", "--n", "5000",
                    "--epsilon", "0.05", "--delta-blocks", "1", "--out",
                    str(prefix)]) == 0
        truth = json.loads((tmp_path / "s.truth.json").read_text())
        assert truth["truth_F"] == []
        assert truth["truth_EY"] == [2500]

    def test_hiding_zero_epsilon_exits_2(self, tmp_path):
        assert run(["simulate", "--preset", "hiding", "--n", "1000",
                    "--epsilon", "0", "--out", str(tmp_path / "x")]) == 2

    def test_values_round_trip_exactly(self, tmp_path):
        prefix = tmp_path / "rt"
        assert run(["simulate", "--preset", "hiding", "--n", "2000",
                    "--epsilon", "0.1", "--delta-blocks", "2", "--kappa",
                    "1", "--seed", "7", "--out", str(prefix)]) == 0
        read_back = read_series(str(prefix) + ".csv").values
        ls = generate(AttackSpec(Hiding(epsilon=0.1, blocks=2, kappa=1.0),
                                 2000, seed=7))
        assert np.array_equal(read_back, ls.series.values)
        truth = json.loads((tmp_path / "rt.truth.json").read_text())
        assert truth["mask"]["count"] == int(ls.contaminated_mask.sum())

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--preset", "spurious", "--n", "500",
                "--epsilon", "0.2", "--delta-blocks", "1", "--seed", "5"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()


class TestBench:
    GRID = {"preset": "spurious", "n": 1200, "epsilons": [0.1],
            "blocks": [1], "sigmas": [1.0], "windows": [80],
            "reps": 2, "methods": ["arc"], "master_seed": 3}

    def test_grid_file_runs(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(self.GRID))
        out = tmp_path / "rows.csv"
        jout = tmp_path / "rows.json"
        code = run(["bench", "--grid", str(grid_path), "--out", str(out),
                    "--json-out", str(jout)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("preset,n,epsilon")
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "spurious"
        payload = json.loads(jout.read_text())
        assert payload[0]["method"] == "arc"

    def test_grid_repeat_identical(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(self.GRID))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["bench", "--grid", str(grid_path), "--out", str(a)]) == 0
        assert run(["bench", "--grid", str(grid_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_grid_exits_2(self, tmp_path):
        assert run(["bench", "--grid", str(tmp_path / "nope.json")]) == 2

    def test_unknown_grid_key_exits_2(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"preset": "spurious", "n": 100,
                                         "color": "red"}))
        assert run(["bench", "--grid", str(grid_path)]) == 2

    def test_phase_table_format(self, tmp_path):
        out = tmp_path / "phase.csv"
        code = run(["bench", "--paper-table", "phase", "--reps", "1",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "kappa_over_sigma,success_rate"
        assert len(lines) == 8
        rates = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(0.0 <= r <= 1.0 for r in rates)


class TestTune:
    def test_constant_input_selects_zero(self, tmp_path):
        data = write_values(tmp_path / "c.csv", [4.0] * 300)
        out = tmp_path / "t.json"
        code = run(["tune", "--input", data, "--train-range", "0:300",
                    "--sigma", "1", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["epsilon_selected"] == 0.0
        assert len(rep["tournament_scores"]) == 201

    def test_contaminated_input_lands_in_band(self, tmp_path):
        g = np.random.default_rng(1000)
        v = g.normal(0.0, 1.0, 300)
        v[g.random(300) < 0.1] = 10.0
        data = write_values(tmp_path / "t.csv", v)
        out = tmp_path / "t.json"
        code = run(["tune", "--input", data, "--train-range", "0:300",
                    "--sigma", "1", "--h", "150", "--delta", "0.5",
                    "--seed", "0", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert 0.05 <= rep["epsilon_selected"] <= 0.2

    def test_tiny_training_range_exits_2(self, tmp_path):
        data = write_values(tmp_path / "c.csv", [4.0] * 300)
        assert run(["tune", "--input", data, "--train-range", "0:1",
                    "--sigma", "1"]) == 2

    def test_malformed_range_exits_2(self, tmp_path):
        data = write_values(tmp_path / "c.csv", [4.0] * 300)
        assert run(["tune", "--input", data, "--train-range", "zero-300",
                    "--sigma", "1"]) == 2


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        data = write_values(tmp_path / "c.csv", [5.0] * 400)
        out = tmp_path / "rep.json"
        proc = subprocess.run(
            [sys.executable, "-m", "arc_cpd.cli", "detect", "--input", data,
             "--h", "100", "--epsilon", "0.05", "--sigma", "1",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(out.read_text())["result"]["k_hat"] == 0

    def test_error_diagnostics_single_line(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "arc_cpd.cli", "detect", "--input",
             str(tmp_path / "nope.csv"), "--h", "50", "--epsilon", "0.1"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        err = proc.stderr.strip()
        assert err.startswith("error:")
        assert "\n" not in err
