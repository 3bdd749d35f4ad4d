"""The three benchmark workloads: inputs from a seed, one operation, its check.

Each workload is a closed loop with one caller. `op(i)` runs operation i and
returns its output; `check(out)` returns None when the output is correct and
a one-line reason otherwise; `digest(out)` is what must be identical between
a traced and an untraced run of the same operation; `notes()` are findings
to print with the result.

Operations call the package through module attributes (`detector.detect`,
`tune.tournament`, `bench.run_grid`) so that the trace's wrappers see them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from statistics import median
from typing import Optional, Tuple

import numpy as np

import arc_cpd.bench as bench
import arc_cpd.detector as detector
import arc_cpd.tune as tune
from arc_cpd.core import DetectionConfig, substream
from arc_cpd.simgen import AttackSpec, Hiding, build_preset, generate


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, SMOKE checks the plumbing."""

    scan_n: int
    scan_h: int
    scan_blocks: int
    tune_n: int
    tune_pool: int
    grid_windows: Optional[Tuple[int, ...]]  # None keeps the preset's five
    import_probes: int


FULL = Sizes(scan_n=100_000, scan_h=170, scan_blocks=20, tune_n=5000,
             tune_pool=6, grid_windows=None, import_probes=3)
SMOKE = Sizes(scan_n=6000, scan_h=85, scan_blocks=3, tune_n=1000,
              tune_pool=3, grid_windows=(170,), import_probes=1)

DELTA = 0.05
EPSILON = 0.1
SIGMA = 1.0


def derive(seed: int, *key: int) -> int:
    """A 32-bit seed for `key` under the workload seed, owned by the benchmark."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint32)[0])


class ScanLong:
    """Repeated `detect` on one long hiding series, fresh detector seed each."""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.h = sizes.scan_h
        spec = AttackSpec(Hiding(epsilon=EPSILON, blocks=sizes.scan_blocks,
                                 kappa=1.0), sizes.scan_n, derive(seed, 0))
        self.labeled = generate(spec)
        self.config = DetectionConfig(
            h=self.h, epsilon=EPSILON,
            lambda_policy=detector.SimulationDefaultLambda(),
            delta=DELTA, sigma=SIGMA)
        self.ops_checked = 0
        self.false_alarms = 0

    def op(self, i: int):
        config = replace(self.config, seed=derive(self.seed, 1, i))
        return detector.detect(self.labeled.series, config)

    def check(self, report) -> Optional[str]:
        """Fails on a non-finite scan value, a true change with no detection
        within 2h, or a detection that is not a local maximizer strictly
        above lambda. Detections farther than 2h from every true change are
        false alarms of the fixed simulation threshold: they are counted in
        `false_alarms`, not failed (see perfbench/README.md)."""
        j0 = min(report.scan_curve)
        values = np.fromiter(report.scan_curve.values(), dtype=np.float64)
        if not np.isfinite(values).all():
            return "non-finite scan value"
        est = np.asarray(report.estimated.locations, dtype=np.int64)
        truth = np.asarray(self.labeled.truth_f.locations, dtype=np.int64)
        gaps = np.abs(est[:, None] - truth[None, :])
        if est.size == 0 or (gaps.min(axis=0) > 2 * self.h).any():
            return (f"true change missed by more than 2h; found "
                    f"{est.size}, truth has {truth.size}")
        radius = 4 * self.h
        for j in est - j0:
            near = values[max(j - radius + 1, 0):j + radius]
            if not (values[j] > report.lambda_used and values[j] >= near.max()):
                return f"detection {j + j0} is not a maximizer above lambda"
        self.ops_checked += 1
        self.false_alarms += int((gaps.min(axis=1) > 2 * self.h).sum())
        return None

    def digest(self, report):
        values = np.fromiter(report.scan_curve.values(), dtype=np.float64)
        return (report.estimated.locations,
                hashlib.sha256(values.tobytes()).hexdigest())

    def notes(self):
        return [f"false alarms (detections > 2h from every true change): "
                f"{self.false_alarms} in {self.ops_checked} checked ops"]


class TuneSelect:
    """Repeated `tournament` calls over a fixed pool of attacked series."""

    KINDS = ("spurious", "hiding", "cauchy")

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.pool = [
            generate(build_preset(self.KINDS[p % 3], n=sizes.tune_n,
                                  seed=derive(seed, 0, p))).series
            for p in range(sizes.tune_pool)]
        self.tc = tune.TournamentConfig(training_range=(0, 300), sigma=SIGMA)

    def op(self, i: int):
        rng = substream(derive(self.seed, 1, i), 0)
        return tune.tournament(self.pool[i % len(self.pool)], self.tc,
                               170, DELTA, rng)

    def check(self, result) -> Optional[str]:
        if not result.feasible[result.selected_index]:
            return f"selected index {result.selected_index} is infeasible"
        k = sum(result.feasible)
        for ok, s in zip(result.feasible, result.scores):
            if ok != (s is not None) or (ok and not 0 <= s <= k - 1):
                return f"score {s} outside [0, {k - 1}]"
        return None

    def digest(self, result):
        return (result.selected_index, result.scores)

    def notes(self):
        return []


class GridMC:
    """A run_grid slice of the window-sensitivity preset at 1 then 2 threads."""

    METHODS = ("arc", "aarc", "baseline")

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.windows = sizes.grid_windows
        self.mark = lambda tag: None
        self.speedups = []

    def grid(self, i: int):
        g = bench.preset_table_sensitivity(
            reps=1, master_seed=derive(self.seed, 1, i),
            methods=self.METHODS)[0]
        return g if self.windows is None else replace(g, windows=self.windows)

    def op(self, i: int):
        g = self.grid(i)
        walls = []
        rows = []
        for threads in (1, 2):
            self.mark(f"t{threads}")
            t = time.perf_counter()
            rows.append(bench.run_grid(g, threads=threads))
            walls.append(time.perf_counter() - t)
        self.mark("")
        self.speedups.append(walls[0] / walls[1])
        return rows

    def check(self, rows) -> Optional[str]:
        one, two = rows
        skipped = [r.method for r in one + two if r.skipped is not None]
        if skipped:
            return f"skipped rows: {skipped}"
        if bench.rows_to_json(one) != bench.rows_to_json(two):
            return "rows differ between threads=1 and threads=2"
        return None

    def digest(self, rows):
        return bench.rows_to_json(rows[0])

    def notes(self):
        return [f"thread_speedup {median(self.speedups):.4f} (threads=1 wall "
                f"over threads=2 wall, median of {len(self.speedups)} ops)"]


WORKLOADS = {"scan_long": ScanLong, "tune_select": TuneSelect,
             "grid_mc": GridMC}
