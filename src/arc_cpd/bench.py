"""Monte-Carlo harness: grid experiments, phase sweep, non-robust control.

A grid names one generator preset and value lists for its parameters; cells
are the cartesian product (or an explicit cell list), and every cell runs R
repetitions of generate -> detect -> score for each requested method:

    arc       detector fed the cell's true contamination level
    aarc      level selected per repetition by the training tournament
    baseline  plain window means, threshold 3 * sigma * sqrt(log(n) / h)

Randomness is hierarchical: master seed -> cell index -> repetition ->
(0 = generator, 1 + method index = that method: 0 = its tournament,
1 = its detector), all derived in _rep_seeds. The unit of work is one
(cell, method) row, which regenerates its cell's series per repetition
from the same seeds. Rows therefore never depend on execution order or
worker process count, and run_grid output is byte-reproducible from the
master seed.

Scoring is always against the clean segment truth. Infinite Hausdorff values
(empty versus nonempty estimate) are excluded from location-error aggregates
and counted in excluded_inf.
"""

from __future__ import annotations

import functools
import io
import json
import math
import multiprocessing
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (_UINT64_MAX, ArcCpdError, ChangePointSet,
                   DetectionConfig, RngStream, _check_int, _check_real,
                   _is_int, _is_real, substream)
from .detector import (
    DEFAULT_C_LAMBDA,
    SimulationDefaultLambda,
    TheoreticalLambda,
    baseline_scan,
    detect,
)
from .metrics import hausdorff
from .rume import auto_delta
from .simgen import (AttackSpec, LabeledSeries, Sine, _design,
                     build_preset, generate)
from .tune import TournamentConfig, select_epsilon

__all__ = [
    "BENCH_CSV_HEADER",
    "SIM_DELTA",
    "ExperimentGrid",
    "GridCell",
    "BenchRow",
    "run_grid",
    "rows_to_csv",
    "rows_to_json",
    "baseline_scan",
    "phase_sweep",
    "preset_table_d1",
    "preset_table_sensitivity",
]

_METHODS = ("arc", "aarc", "baseline")

# Failure level used for detection inside simulation cells. The fixed
# simulation thresholds presuppose the low-trimming regime log(1/d)/h << 1,
# which the 1/n detection default does not reach at these window sizes; at
# 0.05 the kept span sits within a few order statistics of its large-h
# limit while the per-window failure budget stays meaningful. Pushing
# delta higher is counterproductive: the kept interval widens until it
# starts absorbing point-mass contamination.
SIM_DELTA = 0.05


def _sim_delta(n: int, h: int, epsilon: float) -> float:
    # at small h the feasibility fallback needs an even milder level
    return max(SIM_DELTA, auto_delta(n, h, epsilon))

BENCH_CSV_HEADER = ("preset,n,epsilon,delta_blocks,kappa,sigma,window,method,"
                    "mean_count_error,sd_count_error,median_scaled_dh,"
                    "sd_scaled_dh,hist_k_eq_K,hist_k_eq_2D1,excluded_inf")


@dataclass(frozen=True)
class GridCell:
    """One resolved parameter combination inside a grid."""

    index: int
    epsilon: float
    blocks: Optional[int]
    kappa: Optional[float]
    sigma: Optional[float]
    window: int


# each cell entry in order: its GridCell field, the grid list a product
# cell draws it from, its check and what the check asks for
_CELL_FIELDS = (
    ("epsilon", "epsilons", lambda v: v is None or _is_real(v),
     "a real number or null"),
    ("blocks", "blocks", lambda v: v is None or _is_int(v),
     "an integer or null"),
    ("kappa", "kappas", lambda v: v is None or _is_real(v),
     "a real number or null"),
    ("sigma", "sigmas", lambda v: v is None or _is_real(v),
     "a real number or null"),
    ("window", "windows", _is_int, "an integer"),
)


@dataclass(frozen=True, eq=False)
class ExperimentGrid:
    """Preset name, parameter value lists, repetition count, and methods.

    windows holds nominal full widths (2h); odd values are floored when
    halved. explicit_cells, when given, replaces the cartesian product:
    a tuple of (epsilon, blocks, kappa, sigma, window) tuples. In every
    cell epsilon, kappa and sigma are real numbers or None, blocks is an
    integer or None and window an integer; a bool is none of these.
    """

    preset: str
    n: int
    epsilons: Tuple[Optional[float], ...] = (None,)
    blocks: Tuple[Optional[int], ...] = (None,)
    kappas: Tuple[Optional[float], ...] = (None,)
    sigmas: Tuple[Optional[float], ...] = (None,)
    windows: Tuple[int, ...] = (340,)
    reps: int = 100
    methods: Tuple[str, ...] = ("arc",)
    master_seed: int = 0
    lambda_policy: str = "sim"
    c_lambda: float = DEFAULT_C_LAMBDA
    training_points: int = 300
    explicit_cells: Optional[Tuple[Tuple, ...]] = None

    def __post_init__(self):
        for name in ("epsilons", "blocks", "kappas", "sigmas", "windows",
                     "methods", "explicit_cells"):
            value = getattr(self, name)
            if isinstance(value, str) or not hasattr(value, "__iter__") and (
                    value is not None or name != "explicit_cells"):
                raise ValueError(f"{name} must be a list, not {value!r}")
        _check_int("n", self.n, 2)
        _check_int("master_seed", self.master_seed, 0, _UINT64_MAX)
        _check_int("training_points", self.training_points, 2)
        _check_int("reps", self.reps, 1)
        _check_real("c_lambda", self.c_lambda)
        if not self.methods:
            raise ValueError("methods must be nonempty")
        for m in self.methods:
            if m not in _METHODS:
                raise ValueError(
                    f"unknown method {m!r}; choose from {', '.join(_METHODS)}")
        if self.lambda_policy not in ("sim", "theoretical"):
            raise ValueError("lambda_policy must be 'sim' or 'theoretical'")
        if self.explicit_cells is None:
            for name in ("epsilons", "blocks", "kappas", "sigmas", "windows"):
                if not getattr(self, name):
                    raise ValueError(f"{name} must be nonempty")
        elif not self.explicit_cells:
            raise ValueError("explicit_cells must be nonempty when given")
        explicit = self.explicit_cells is not None
        for i, combo in enumerate(self._combos()):
            if explicit and (isinstance(combo, str) or
                             not hasattr(combo, "__len__") or len(combo) != 5):
                raise ValueError(
                    f"explicit_cells[{i}] must have 5 entries (epsilon, "
                    f"blocks, kappa, sigma, window), not {combo!r}")
            for (field, values, ok, kind), value in zip(_CELL_FIELDS, combo):
                if not ok(value):
                    name = (f"explicit_cells[{i}] {field}" if explicit
                            else f"{values} entry")
                    raise ValueError(f"{name} must be {kind}, not {value!r}")

    def _combos(self) -> Tuple[Tuple, ...]:
        if self.explicit_cells is not None:
            return self.explicit_cells
        return tuple(product(self.epsilons, self.blocks, self.kappas,
                             self.sigmas, self.windows))

    def cells(self) -> List[GridCell]:
        """Cells in canonical order; indices seed the per-cell streams."""
        return [GridCell(i, *combo) for i, combo in enumerate(self._combos())]


@dataclass(frozen=True, eq=False)
class BenchRow:
    """Aggregated results of one (cell, method) pair over R repetitions."""

    preset: str
    n: int
    epsilon: Optional[float]
    delta_blocks: Optional[int]
    kappa: Optional[float]
    sigma: Optional[float]
    window: int
    method: str
    reps: int
    mean_count_error: float
    sd_count_error: float
    median_scaled_dh: float
    sd_scaled_dh: float
    mean_scaled_dh: float
    mean_signed_k_error: float
    hist_k_eq_K: int
    hist_k_eq_2D1: int
    khat_histogram: Dict[int, int]
    excluded_inf: int
    skipped: Optional[str] = None


def _fan_out(fn: Callable, items: Sequence, threads: int) -> list:
    """[fn(x) for x in items] on up to `threads` worker processes, in order.

    fn and the items must pickle. Workers are forked where the platform
    allows it and no other thread is running, so they start without
    re-importing the package; otherwise they are spawned. An error raised
    by fn reaches the caller as the same exception.
    """
    _check_int("threads", threads, 1)
    if threads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # a fork copies locks that another thread may hold, never that thread
    fork = ("fork" in multiprocessing.get_all_start_methods() and
            threading.active_count() == 1)
    context = multiprocessing.get_context("fork" if fork else "spawn")
    with ProcessPoolExecutor(max_workers=min(threads, len(items)),
                             mp_context=context) as pool:
        return list(pool.map(fn, items))


def _cell_spec(grid: ExperimentGrid, cell: GridCell, seed: int) -> AttackSpec:
    return build_preset(grid.preset, n=grid.n, epsilon=cell.epsilon,
                        delta_blocks=cell.blocks, kappa=cell.kappa,
                        sigma=cell.sigma, seed=seed)


def _arc_policy(grid: ExperimentGrid):
    if grid.lambda_policy == "sim":
        return SimulationDefaultLambda()
    return TheoreticalLambda(grid.c_lambda)


def _rep_seeds(cell_seed: int, r: int,
               methods: int) -> Tuple[int, List[Tuple[RngStream, int]]]:
    """Repetition r's generator seed and, per method, its tournament stream
    and detector seed."""
    rep_seed = substream(cell_seed, r).child_seed()
    method_seeds = [substream(rep_seed, 1 + mi).child_seed()
                    for mi in range(methods)]
    return (substream(rep_seed, 0).child_seed(),
            [(substream(m, 0), substream(m, 1).child_seed())
             for m in method_seeds])


def _run_method(method: str, ls: LabeledSeries, grid: ExperimentGrid,
                cell: GridCell, tune_rng: RngStream,
                detect_seed: int) -> ChangePointSet:
    h = cell.window // 2
    n = grid.n
    sigma = _design(ls.spec).sigma  # the clean noise scale of the series

    if method == "baseline":
        config = DetectionConfig(h=h, epsilon=0.0,
                                 lambda_policy=_arc_policy(grid),
                                 sigma=sigma, seed=detect_seed)
        return baseline_scan(ls.series, config).estimated

    if method == "aarc":
        # the tournament reuses the detection failure level
        tc = TournamentConfig(training_range=(0, grid.training_points),
                              sigma=sigma)
        eps = select_epsilon(ls.series, tc, detection_h=h,
                             delta=_sim_delta(n, h, 0.0), rng=tune_rng)
    else:
        eps = cell.epsilon if cell.epsilon is not None else 0.0

    config = DetectionConfig(h=h, epsilon=eps,
                             lambda_policy=_arc_policy(grid),
                             delta=_sim_delta(n, h, eps),
                             sigma=sigma, seed=detect_seed)
    return detect(ls.series, config).estimated


def _aggregate(grid: ExperimentGrid, cell: GridCell, method: str,
               k_hats: List[int], scaled: List[float], truth_k: int,
               adv_k: int, skipped: Optional[str] = None) -> BenchRow:
    reps = grid.reps
    if skipped is not None:
        nan = math.nan
        return BenchRow(grid.preset, grid.n, cell.epsilon, cell.blocks,
                        cell.kappa, cell.sigma, cell.window, method, reps,
                        nan, nan, nan, nan, nan, nan, 0, 0, {}, 0,
                        skipped=skipped)
    signed_arr = np.asarray(k_hats, dtype=np.float64) - truth_k
    abs_arr = np.abs(signed_arr)
    scaled_arr = np.asarray(scaled, dtype=np.float64)
    finite = scaled_arr[np.isfinite(scaled_arr)]
    excluded = int(scaled_arr.size - finite.size)
    if finite.size == 0:
        med = math.inf
        sd_dh = math.nan
        mean_dh = math.inf
    else:
        med = float(np.median(finite))
        sd_dh = float(np.std(finite, ddof=1)) if finite.size > 1 else 0.0
        mean_dh = float(np.mean(finite))
    hist = Counter(k_hats)
    return BenchRow(
        preset=grid.preset, n=grid.n, epsilon=cell.epsilon,
        delta_blocks=cell.blocks, kappa=cell.kappa, sigma=cell.sigma,
        window=cell.window, method=method, reps=reps,
        mean_count_error=float(abs_arr.mean()),
        sd_count_error=(float(abs_arr.std(ddof=1)) if reps > 1 else 0.0),
        median_scaled_dh=med,
        sd_scaled_dh=sd_dh,
        mean_scaled_dh=mean_dh,
        mean_signed_k_error=float(signed_arr.mean()),
        hist_k_eq_K=hist[truth_k],
        hist_k_eq_2D1=hist[adv_k],
        khat_histogram=dict(sorted(hist.items())),
        excluded_inf=excluded,
    )


def _run_row(grid: ExperimentGrid,
             job: Tuple[GridCell, int]) -> BenchRow:
    """One (cell, method index) row over the grid's repetitions."""
    cell, mi = job
    method = grid.methods[mi]
    cell_seed = substream(grid.master_seed, cell.index).child_seed()
    k_hats, scaled = [], []
    truth_k = adv_k = 0

    for r in range(1, grid.reps + 1):
        gen_seed, method_seeds = _rep_seeds(cell_seed, r, len(grid.methods))
        ls = generate(_cell_spec(grid, cell, gen_seed))
        truth = ls.truth_f
        truth_k = truth.k
        adv_k = (2 * cell.blocks - 1) if cell.blocks else ls.truth_ey.k
        try:
            est = _run_method(method, ls, grid, cell, *method_seeds[mi])
        except ArcCpdError as err:
            return _aggregate(grid, cell, method, k_hats, scaled, truth_k,
                              adv_k, skipped=str(err))
        k_hats.append(est.k)
        scaled.append(hausdorff(est, truth) / grid.n)

    return _aggregate(grid, cell, method, k_hats, scaled, truth_k, adv_k)


def run_grid(grid: ExperimentGrid, threads: int = 1) -> List[BenchRow]:
    """All rows of a grid in canonical order: cells, then methods in grid
    order, one per (cell, method).

    Each row is one job for up to `threads` worker processes; rows do not
    depend on the thread count.
    """
    jobs = list(product(grid.cells(), range(len(grid.methods))))
    return _fan_out(functools.partial(_run_row, grid), jobs, threads)


def _json_safe(x):
    """x with non-finite floats as "nan" / "inf" / "-inf" strings and dict
    keys as strings, through nested dicts, lists and tuples."""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def _csv_num(x) -> str:
    if x is None:
        return ""
    x = _json_safe(x)
    return format(x, ".6g") if isinstance(x, float) else str(x)


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    out = io.StringIO()
    out.write(BENCH_CSV_HEADER + "\n")
    columns = BENCH_CSV_HEADER.split(",")  # each a BenchRow field
    for r in rows:
        out.write(",".join(_csv_num(getattr(r, c)) for c in columns) + "\n")
    return out.getvalue()


def rows_to_json(rows: Sequence[BenchRow]) -> str:
    return json.dumps([_json_safe(r.__dict__) for r in rows], indent=2,
                      sort_keys=True)


def _phase_kappa(n: int, L: int, epsilon: float, reps: int,
                 master_seed: int,
                 item: Tuple[int, float]) -> Tuple[float, float]:
    """One phase_sweep cell: item is (index in kappa_grid, kappa)."""
    ki, kappa = item
    kappa = float(kappa)
    h = L // 8 - (L % 8 == 0)  # keep h < L / 8 strict
    truth = tuple(range(L, n, L))
    cell_seed = substream(master_seed, ki).child_seed()
    wins = 0
    for r in range(1, reps + 1):
        gen_seed, [(_, det_seed)] = _rep_seeds(cell_seed, r, 1)
        spec = AttackSpec(
            Sine(epsilon=epsilon, amplitude=0.0, frequency=1.0,
                 kappa=kappa, sigma=1.0, truth=truth), n, gen_seed)
        ls = generate(spec)
        config = DetectionConfig(h=h, epsilon=epsilon,
                                 lambda_policy=TheoreticalLambda(3.0),
                                 delta=_sim_delta(n, h, epsilon),
                                 sigma=1.0, seed=det_seed)
        est = detect(ls.series, config).estimated
        if est.k == ls.truth_f.k and \
                hausdorff(est, ls.truth_f) <= 2 * h:
            wins += 1
    return (kappa, wins / reps)


def phase_sweep(n: int, L: int, epsilon: float,
                kappa_grid: Sequence[float], reps: int,
                master_seed: int = 0,
                threads: int = 1) -> List[Tuple[float, float]]:
    """Empirical success probability of exact recovery per jump size.

    Truth places a change every L points with segment means alternating
    0 / kappa over N(0, 1) noise; contamination replaces an index's draw
    with pure noise N(0, 1) at rate epsilon. Detection uses the largest
    half-width h below L / 8 and the theoretical threshold
    3 * sqrt(eps_eff), a strong null-suppressing value, so failures below
    the boundary are misses, not false alarms. A repetition succeeds when
    the detector finds exactly the true number of changes, all within 2h.

    Returns [(kappa / sigma, success rate)] in kappa_grid order, where
    sigma is 1; threads caps the worker processes and does not change the
    result.
    """
    _check_int("n", n)
    if n % _check_int("L", L, 1) != 0 or n // L < 2:
        raise ValueError("L must divide n into at least 2 segments")
    _check_int("reps", reps, 1)
    _check_int("master_seed", master_seed, 0, _UINT64_MAX)
    cell = functools.partial(_phase_kappa, n, L, epsilon, reps, master_seed)
    return _fan_out(cell, list(enumerate(kappa_grid)), threads)


# Spurious-attack table: (epsilon, blocks, sigma) rows at n = 5000, 2h = 340
_TABLE_D1_CELLS = (
    (0.0, 1, 1.0),
    (0.05, 1, 1.0), (0.05, 1, 5.0), (0.05, 1, 20.0),
    (0.05, 5, 1.0), (0.05, 5, 5.0), (0.05, 5, 20.0),
    (0.1, 1, 1.0), (0.1, 1, 5.0), (0.1, 1, 20.0),
    (0.1, 2, 1.0),
    (0.1, 5, 1.0), (0.1, 5, 5.0), (0.1, 5, 20.0),
    (0.2, 1, 1.0), (0.2, 1, 5.0), (0.2, 1, 20.0),
    (0.2, 2, 1.0),
    (0.2, 5, 1.0), (0.2, 5, 5.0), (0.2, 5, 20.0),
)


def preset_table_d1(reps: int = 100, master_seed: int = 0,
                   methods: Tuple[str, ...] = ("arc", "aarc")) -> ExperimentGrid:
    """Spurious-attack table: 21 cells over (epsilon, blocks, sigma)."""
    cells = tuple((e, b, None, s, 340) for (e, b, s) in _TABLE_D1_CELLS)
    return ExperimentGrid(preset="spurious", n=5000, reps=reps,
                          methods=methods, master_seed=master_seed,
                          explicit_cells=cells)


_SENS_WINDOWS = (85, 170, 255, 340, 511)


def preset_table_sensitivity(reps: int = 100, master_seed: int = 0,
                            methods: Tuple[str, ...] = ("arc", "aarc"),
                            ) -> Tuple[ExperimentGrid, ...]:
    """Window-width sweeps: two hiding scenarios and one spurious scenario."""
    base = dict(n=5000, reps=reps, methods=methods, windows=_SENS_WINDOWS)
    return (
        ExperimentGrid(preset="hiding", epsilons=(0.1,), blocks=(2,),
                       kappas=(1.0,), master_seed=master_seed, **base),
        ExperimentGrid(preset="hiding", epsilons=(0.1,), blocks=(3,),
                       kappas=(1.0,), master_seed=master_seed + 1, **base),
        ExperimentGrid(preset="spurious", epsilons=(0.1,), blocks=(5,),
                       sigmas=(1.0,), master_seed=master_seed + 2, **base),
    )
