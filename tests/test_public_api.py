"""The package's exported names and the runnable demos."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import arc_cpd

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env,
                          timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_demo(name: str) -> str:
    return run_python(str(ROOT / "demos" / name))


class TestExports:
    def test_all_names_are_public_and_not_modules(self):
        assert arc_cpd.__all__
        for name in arc_cpd.__all__:
            assert not name.startswith("_")
            assert not inspect.ismodule(getattr(arc_cpd, name)), name

    def test_exported_names_are_pinned(self):
        # any addition to or retirement from the API shows up in this list
        assert arc_cpd.__all__ == [
            "AggregateReport", "ArcCpdError", "AttackSpec", "BenchRow",
            "CauchyContam", "ChangePointSet", "CleanSteps", "CorruptReal",
            "CorruptionRule", "DegenerateScale", "DetectionConfig",
            "EmptySeries", "ExperimentGrid", "Hiding", "InfeasibleWindow",
            "LabeledSeries", "LambdaPolicy", "LambdaResolutionFailure",
            "ManualLambda", "MetricReport", "NoFeasibleCandidate",
            "NonFiniteScan", "NonFiniteValue", "PRESET_NAMES",
            "RealDataHeavyTailLambda", "RealDataLambda", "RngStream",
            "RumeOutcome", "RumeParams", "RunReport", "SeriesTooShort",
            "SimulationDefaultLambda", "Sine", "SpecInvalid", "Spurious",
            "TheoreticalLambda", "TimeSeries", "TournamentConfig",
            "TournamentResult", "atom_profile", "auto_delta", "baseline_scan",
            "build_preset", "count_error", "covering", "default_grid",
            "detect", "detect_repeated", "effective_epsilon", "generate",
            "hausdorff", "local_maximizers", "mad_sigma", "pairwise_test",
            "phase_sweep", "recommend_h", "resolve_lambda", "rows_to_csv",
            "rows_to_json", "rume", "run_grid", "score", "select_epsilon",
            "substream", "tournament", "trimming_span",
        ]

    def test_star_import_covers_the_api(self):
        namespace = {}
        exec("from arc_cpd import *", namespace)
        for name in ("detect", "baseline_scan", "run_grid", "rume",
                     "generate", "TimeSeries"):
            assert name in namespace
        assert "bench" not in namespace and "detector" not in namespace
        # a name in a module's __all__ that the module lacks makes its star
        # import raise AttributeError
        for module in ("core", "rume", "detector", "simgen", "tune", "bench",
                       "metrics"):
            exec(f"from arc_cpd.{module} import *", {})


class TestImport:
    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats roughly doubles the import's time and peak memory, and
        # scipy.ndimage adds about 40 ms and 1.6 MiB; the package needs only
        # scipy.special (for ndtr)
        out = run_python("-c", "import sys, arc_cpd; "
                               "print('scipy.stats' in sys.modules, "
                               "'scipy.ndimage' in sys.modules)")
        assert out.strip() == "False False"


class TestDemos:
    def test_quickstart_matches_readme(self):
        out = run_demo("quickstart.py")
        assert "estimated changes: (1253, 2517, 3780)" in out
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert "(1253, 2517, 3780)" in readme

    def test_attack_contrast(self):
        # the plain-mean scan chases the planted step, the robust one not
        lines = run_demo("attack_contrast.py").splitlines()
        plain = next(ln for ln in lines if ln.startswith("plain-mean scan:"))
        robust = next(ln for ln in lines if ln.startswith("robust scan:"))
        assert "K=1 " in plain
        assert "K=0 " in robust
