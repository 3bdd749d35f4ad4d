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

    def test_header_line_skipped(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("value\n1.0\n2.0\n")
        assert list(read_series(str(p)).values) == [1.0, 2.0]

    @pytest.mark.parametrize("text", [
        "# exported\ntimestamp,value\n1,0.5\n2,0.7\n",
        "\n\ntimestamp,value\n1,0.5\n# mid comment\n2,0.7\n",
    ], ids=["comment_first", "blank_lines_first"])
    def test_header_after_comments_and_blank_lines(self, tmp_path, text):
        p = tmp_path / "hdr.csv"
        p.write_text(text)
        assert list(read_series(str(p)).values) == [0.5, 0.7]

    def test_second_header_line_rejected(self, tmp_path):
        p = tmp_path / "hdr2.csv"
        p.write_text("# exported\ntimestamp,value\nunit,volts\n1,0.5\n")
        with pytest.raises(ValueError, match="hdr2.csv:3: not a number"):
            read_series(str(p))

    def test_two_column_timestamp_ignored(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("2020-01-01,4.5\n2020-01-02,5.5\n")
        assert list(read_series(str(p)).values) == [4.5, 5.5]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0\n\n2.0\n\n")
        assert list(read_series(str(p)).values) == [1.0, 2.0]

    def test_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("# values\n1.0\n2.0\n# mid comment\n3.0\n")
        assert list(read_series(str(p)).values) == [1.0, 2.0, 3.0]

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

    @pytest.mark.parametrize("text, values", [
        (b"\xef\xbb\xbf1.5\n2.0\n3.0\n", [1.5, 2.0, 3.0]),
        (b"\xef\xbb\xbfvalue\n2.0\n3.0\n", [2.0, 3.0]),
    ], ids=["bom_before_number", "bom_before_header"])
    def test_byte_order_mark_ignored(self, tmp_path, text, values):
        # a BOM left on the first line made it fail to parse, so a first
        # value was taken for a header and dropped without an error
        p = tmp_path / "bom.csv"
        p.write_bytes(text)
        assert list(read_series(str(p)).values) == values

    def test_non_finite_value_names_its_line(self, tmp_path, capsys):
        p = tmp_path / "big.csv"
        p.write_text("# c\n1.0\n2.0\n1e400\n4.0\n")
        with pytest.raises(ValueError, match=r"big\.csv:4: not finite"):
            read_series(str(p))
        assert run(["detect", "--input", str(p), "--h", "2",
                    "--epsilon", "0.1"]) == 2
        assert "big.csv:4: not finite" in capsys.readouterr().err


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

    @pytest.mark.parametrize("extra, sigma", [([], None),
                                              (["--sigma", "2"], 2.0)])
    def test_manual_lambda_needs_no_scale_estimate(self, tmp_path, extra,
                                                   sigma):
        # the MAD of a constant series is zero; a manual threshold never
        # reads a scale, so none is estimated and none is reported
        data = write_values(tmp_path / "c.csv", [3.0] * 200)
        out = tmp_path / "rep.json"
        code = run(["detect", "--input", data, "--h", "10", "--epsilon", "0",
                    "--delta", "0.5", "--lambda", "1.0", "--out", str(out)]
                   + extra)
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["sigma"] == sigma
        assert rep["config"]["lambda"] == 1.0
        assert rep["result"]["k_hat"] == 0

    def test_invalid_h_exits_2(self, gaussian_file):
        assert run(["detect", "--input", gaussian_file, "--h", "0",
                    "--epsilon", "0.1"]) == 2

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_below_one_exits_2(self, gaussian_file, tmp_path, capsys,
                                    runs):
        out = tmp_path / "rep.json"
        code = run(["detect", "--input", gaussian_file, "--h", "50",
                    "--epsilon", "0.1", "--sigma", "1", "--runs", runs,
                    "--out", str(out)])
        assert code == 2
        assert "--runs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

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

    def test_infinite_lambda_exits_2(self, gaussian_file, capsys):
        code = run(["detect", "--input", gaussian_file, "--h", "50",
                    "--epsilon", "0.05", "--lambda-policy", "realdata",
                    "--sigma", "1.6e308"])
        assert code == 2
        err = capsys.readouterr().err
        assert "lambda inf is not finite" in err
        assert len(err.strip().splitlines()) == 1

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

    @pytest.mark.parametrize("extra, policy, radius", [
        ([], "realdata", 120),
        (["--lambda", "0.7"], "manual", 120),
        (["--maximizer-radius", "30"], "realdata", 30),
        (["--lambda-policy", "sim"], "sim", 120),
    ], ids=["alone", "lambda", "radius", "policy"])
    def test_realdata_profile(self, gaussian_file, tmp_path, extra, policy,
                              radius):
        # the profile sets radius 2h and the realdata rule unless overridden
        out = tmp_path / "rep.json"
        assert run(["detect", "--input", gaussian_file, "--h", "60",
                    "--epsilon", "0.1", "--sigma", "1", "--profile",
                    "realdata", "--out", str(out)] + extra) == 0
        config = json.loads(out.read_text())["config"]
        assert config["policy"] == policy
        assert config["maximizer_radius"] == radius

    def test_dump_curve_needs_single_run(self, gaussian_file, tmp_path):
        assert run(["detect", "--input", gaussian_file, "--h", "60",
                    "--epsilon", "0.1", "--sigma", "1", "--runs", "3",
                    "--dump-curve", str(tmp_path / "c.csv")]) == 2

    def test_dump_curve_refused_before_any_run(self, gaussian_file, tmp_path,
                                               monkeypatch, capsys):
        import arc_cpd.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("detection ran before the refusal")

        monkeypatch.setattr(cli, "detect_repeated", never)
        monkeypatch.setattr(cli, "detect", never)
        # epsilon 0.3 at h = 30 is infeasible (exit 3); the argument error
        # wins
        assert run(["detect", "--input", gaussian_file, "--h", "30",
                    "--epsilon", "0.3", "--sigma", "1", "--runs", "20",
                    "--dump-curve", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == \
            "error: --dump-curve needs --runs 1\n"
        assert not (tmp_path / "c.csv").exists()

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

    def test_truth_file_with_byte_order_mark(self, gaussian_file, tmp_path):
        truth = tmp_path / "truth.json"
        truth.write_bytes(b"\xef\xbb\xbf" + json.dumps(
            {"change_points": [400]}).encode())
        out = tmp_path / "rep.json"
        code = run(["detect", "--input", gaussian_file, "--h", "100",
                    "--epsilon", "0.1", "--sigma", "1", "--truth",
                    str(truth), "--out", str(out)])
        assert code == 0
        assert "hausdorff" in json.loads(out.read_text())["metrics"]

    def test_truth_as_bare_list(self, gaussian_file, tmp_path):
        # a bare JSON list scores exactly like the same list under truth_F
        reports = []
        for name, truth in (("list", [400]), ("dict", {"truth_F": [400]})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(truth))
            out = tmp_path / f"{name}.rep.json"
            assert run(["detect", "--input", gaussian_file, "--h", "100",
                        "--epsilon", "0.1", "--sigma", "1", "--truth",
                        str(path), "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text())["metrics"])
        assert reports[0] == reports[1]

    def test_truth_without_locations_exits_2(self, gaussian_file, tmp_path,
                                             capsys):
        truth = tmp_path / "empty.json"
        truth.write_text(json.dumps({"locations": [400]}))
        assert run(["detect", "--input", gaussian_file, "--h", "100",
                    "--epsilon", "0.1", "--sigma", "1", "--truth",
                    str(truth)]) == 2
        err = capsys.readouterr().err
        assert f"{truth}: no truth_F or change_points field" in err

    @pytest.mark.parametrize("locations", [[400.7], [True], ["400"]],
                             ids=["float", "bool", "string"])
    def test_truth_entry_not_an_integer_exits_2(self, locations,
                                                gaussian_file, tmp_path,
                                                capsys):
        # int() had floored 400.7, read true as 1 and parsed "400"
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"change_points": locations}))
        out = tmp_path / "rep.json"
        assert run(["detect", "--input", gaussian_file, "--h", "100",
                    "--epsilon", "0.1", "--sigma", "1", "--truth",
                    str(truth), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{truth}: change points must be a list of JSON integers" \
            in err
        assert not out.exists()

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

    def test_truth_past_short_n_exits_2(self, tmp_path, capsys):
        assert run(["simulate", "--preset", "sine", "--n", "3", "--out",
                    str(tmp_path / "x")]) == 2
        assert "does not fit n = 3" in capsys.readouterr().err

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

    def test_grid_file_explicit_cells(self, tmp_path):
        # nested JSON lists name the product grid's one cell
        cells = dict(self.GRID, explicit_cells=[[0.1, 1, None, 1.0, 80]])
        for key in ("epsilons", "blocks", "sigmas", "windows"):
            del cells[key]
        paths = []
        for name, grid in (("product", self.GRID), ("cells", cells)):
            (tmp_path / f"{name}.json").write_text(json.dumps(grid))
            paths.append(tmp_path / f"{name}.csv")
            assert run(["bench", "--grid", str(tmp_path / f"{name}.json"),
                        "--out", str(paths[-1])]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_grid_repeat_identical(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(self.GRID))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["bench", "--grid", str(grid_path), "--out", str(a)]) == 0
        assert run(["bench", "--grid", str(grid_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_file_with_byte_order_mark(self, tmp_path):
        # the mark made json.load fail with exit 2
        grid_path = tmp_path / "grid.json"
        grid_path.write_bytes(b"\xef\xbb\xbf" + json.dumps(self.GRID).encode())
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(self.GRID))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["bench", "--grid", str(grid_path), "--out", str(a)]) == 0
        assert run(["bench", "--grid", str(plain), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag", ["grid", "truth"])
    def test_malformed_json_names_its_file(self, flag, gaussian_file,
                                           tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"preset": }')
        argv = (["bench", "--grid", str(bad)] if flag == "grid" else
                ["detect", "--input", gaussian_file, "--h", "100",
                 "--epsilon", "0.1", "--sigma", "1", "--truth", str(bad)])
        assert run(argv) == 2
        assert f"{bad}: Expecting value" in capsys.readouterr().err

    def test_missing_grid_exits_2(self, tmp_path):
        assert run(["bench", "--grid", str(tmp_path / "nope.json")]) == 2

    def test_unknown_grid_key_exits_2(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"preset": "spurious", "n": 100,
                                         "color": "red"}))
        assert run(["bench", "--grid", str(grid_path)]) == 2

    @pytest.mark.parametrize("field, value, message", [
        ("reps", "3", "reps must be an integer, not '3'"),
        ("reps", 1.5, "reps must be an integer, not 1.5"),
        ("reps", True, "reps must be an integer, not True"),
        ("n", 1200.5, "n must be an integer, not 1200.5"),
        ("master_seed", None, "master_seed must be an integer, not None"),
        ("training_points", "300", "training_points must be an integer"),
        ("windows", 80, "windows must be a list, not 80"),
        ("windows", [80.0], "windows entry must be an integer, not 80.0"),
        ("methods", "arc", "methods must be a list, not 'arc'"),
        ("epsilons", 0.1, "epsilons must be a list, not 0.1"),
        ("explicit_cells", [[0.1, 1, None, 1.0, 80.5]],
         "explicit_cells[0] window must be an integer, not 80.5"),
        ("explicit_cells", [[0.1, 1, None, 1.0, "80"]],
         "explicit_cells[0] window must be an integer, not '80'"),
        ("explicit_cells", [[0.1, True, None, 1.0, 80]],
         "explicit_cells[0] blocks must be an integer or null, not True"),
        ("explicit_cells", [["x", 1, None, 1.0, 80]],
         "explicit_cells[0] epsilon must be a real number or null, not 'x'"),
        ("explicit_cells", [[0.1, 1, False, 1.0, 80]],
         "explicit_cells[0] kappa must be a real number or null, not False"),
        ("explicit_cells", [[0.1, 1, None, 1.0, 80], [0.1, 1, None, 1.0]],
         "explicit_cells[1] must have 5 entries"),
        ("explicit_cells", [[0.1, 1, None, 1.0, 80, 3]],
         "explicit_cells[0] must have 5 entries"),
        ("blocks", [True], "blocks entry must be an integer or null, not True"),
        ("blocks", [1.5], "blocks entry must be an integer or null, not 1.5"),
        ("epsilons", ["x"],
         "epsilons entry must be a real number or null, not 'x'"),
        ("kappas", ["k"],
         "kappas entry must be a real number or null, not 'k'"),
        ("sigmas", [True],
         "sigmas entry must be a real number or null, not True"),
        ("c_lambda", "2", "c_lambda must be positive and finite, not '2'"),
    ])
    def test_wrong_typed_grid_field_exits_2(self, field, value, message,
                                            tmp_path, capsys):
        # these raised a TypeError traceback (exit 1) or ran as coerced
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(dict(self.GRID, **{field: value})))
        out = tmp_path / "rows.csv"
        assert run(["bench", "--grid", str(grid_path), "--out",
                    str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_nonfinite_sigma_exits_2(self, tmp_path, sigma, capsys):
        data = write_values(tmp_path / "c.csv", [4.0] * 300)
        assert run(["tune", "--input", data, "--train-range", "0:300",
                    "--sigma", sigma]) == 2
        assert "--sigma" in capsys.readouterr().err


class TestStdout:
    @pytest.mark.parametrize("argv", [
        ["detect", "--h", "60", "--epsilon", "0.1", "--sigma", "1"],
        ["tune", "--train-range", "0:300", "--sigma", "1"],
        ["bench", "--grid"],
        ["bench", "--paper-table", "phase", "--reps", "1"],
    ], ids=["detect", "tune", "bench_grid", "bench_phase"])
    def test_stdout_equals_out_file(self, argv, gaussian_file, tmp_path,
                                    capsys):
        if argv[0] in ("detect", "tune"):
            argv = argv + ["--input", gaussian_file]
        elif argv[1] == "--grid":
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps(TestBench.GRID))
            argv = argv + [str(grid)]
        capsys.readouterr()
        assert run(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "report"
        assert run(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert printed.encode("utf-8") == out.read_bytes()


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
