"""The scan detector: robust two-window statistic, local maximizers, threshold.

For every scan index j in {2h, ..., n-2h} the statistic is

    D(j) = | robust_mean(Y[j+1 .. j+2h]) - robust_mean(Y[j-2h+1 .. j]) |

with both window means computed by the contamination-robust estimator in
:mod:`arc_cpd.rume`. Estimated change points are the scan indices that are
local maximizers of D within a +-radius neighborhood (default radius 4h) and
whose value strictly exceeds the threshold lambda. baseline_scan, the
non-robust control, runs the same steps on plain window means.

Each window owns a named substream (left window of j uses stream id 2j, the
right one 2j+1), so the scan can be evaluated in any order, in parallel or
in batches, and still reproduce bit-identical results.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import maximum_filter1d

from .core import (
    ChangePointSet,
    DegenerateScale,
    DetectionConfig,
    InfeasibleWindow,
    LambdaResolutionFailure,
    NonFiniteScan,
    RunReport,
    SeriesTooShort,
    TimeSeries,
    mad_sigma,
    substream,
)
from .rume import _rume_batch, effective_epsilon, trimming_span

__all__ = [
    "ManualLambda",
    "TheoreticalLambda",
    "SimulationDefaultLambda",
    "RealDataLambda",
    "RealDataHeavyTailLambda",
    "LambdaPolicy",
    "DEFAULT_C_LAMBDA",
    "resolve_lambda",
    "RunSummary",
    "AggregateReport",
    "scan_statistic",
    "local_maximizers",
    "detect",
    "baseline_scan",
    "detect_repeated",
    "recommend_h",
]

# Default constant for the theoretical threshold; callers tune it upward
# when stronger null suppression is needed.
DEFAULT_C_LAMBDA = 1.2


@dataclass(frozen=True)
class ManualLambda:
    """Fixed threshold supplied by the caller."""

    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("lambda must be positive")


@dataclass(frozen=True)
class TheoreticalLambda:
    """lambda = c * sigma * sqrt(eps_eff)."""

    c_lambda: float = DEFAULT_C_LAMBDA

    def __post_init__(self):
        if self.c_lambda <= 0:
            raise ValueError("c_lambda must be positive")


@dataclass(frozen=True)
class SimulationDefaultLambda:
    """lambda = max(0.6 * sigma, 8 * sigma * epsilon)."""


@dataclass(frozen=True)
class RealDataLambda:
    """lambda = max(1.2 * sigma * sqrt(5 * log(n) / h), 8 * sigma * epsilon)."""


@dataclass(frozen=True)
class RealDataHeavyTailLambda:
    """lambda = max(1.2 * sigma * sqrt(5 * log(n) / h), 8 * sigma * sqrt(epsilon))."""


LambdaPolicy = Union[ManualLambda, TheoreticalLambda, SimulationDefaultLambda,
                     RealDataLambda, RealDataHeavyTailLambda]


def resolve_lambda(policy: LambdaPolicy, *, sigma: float, epsilon: float,
                   epsilon_eff: float, h: int, n: int) -> float:
    """Concrete threshold value for a policy in a given run context."""
    if isinstance(policy, ManualLambda):
        return policy.value
    if isinstance(policy, TheoreticalLambda):
        return policy.c_lambda * sigma * math.sqrt(epsilon_eff)
    if isinstance(policy, SimulationDefaultLambda):
        return max(0.6 * sigma, 8.0 * sigma * epsilon)
    base = 1.2 * sigma * math.sqrt(5.0 * math.log(n) / h)
    if isinstance(policy, RealDataLambda):
        return max(base, 8.0 * sigma * epsilon)
    if isinstance(policy, RealDataHeavyTailLambda):
        return max(base, 8.0 * sigma * math.sqrt(epsilon))
    raise TypeError(f"unknown lambda policy: {policy!r}")


@dataclass(frozen=True)
class RunSummary:
    """Per-run digest kept by repeated detection (no scan curve)."""

    k_hat: int
    locations: tuple
    lambda_used: float
    epsilon_effective: float
    degenerate_windows: int
    seed_used: int


@dataclass(frozen=True)
class AggregateReport:
    """Aggregation of repeated randomized runs on one series.

    modal_k maximizes the histogram (smallest value on ties); the consensus
    locations are coordinatewise medians over the runs that produced the
    modal count.
    """

    runs: int
    khat_histogram: dict
    modal_k: int
    consensus_locations: ChangePointSet
    per_run: tuple


def _resolve_delta(config: DetectionConfig, n: int) -> float:
    return config.delta if config.delta is not None else 1.0 / n


def _scan_arrays(series: TimeSeries, config: DetectionConfig,
                 mirror_ids: bool = False) -> Tuple[np.ndarray, int]:
    """Robust scan curve over j = 2h..n-2h and its degenerate window count.

    mirror_ids swaps the left/right stream id roles and reverses the id
    axis; it exists for the reversed-series reflection property.
    """
    x = series.values
    n = x.size
    h = config.h
    delta = _resolve_delta(config, n)
    try:
        span = trimming_span(h, config.epsilon, delta)
    except InfeasibleWindow as err:
        raise InfeasibleWindow(h, config.epsilon, delta, err.epsilon_eff,
                               err.condition_value, err.span,
                               scan_index=2 * h) from None

    js = np.arange(2 * h, n - 2 * h + 1, dtype=np.int64)
    view = sliding_window_view(x, 2 * h)
    left_ids = 2 * js
    right_ids = 2 * js + 1
    if mirror_ids:
        left_ids, right_ids = (2 * (n - js) + 1), (2 * (n - js))

    left_est, _, _, left_kept = _rume_batch(view[js - 2 * h], left_ids,
                                            config.seed, span)
    right_est, _, _, right_kept = _rume_batch(view[js], right_ids,
                                              config.seed, span)
    curve = np.abs(right_est - left_est)
    return curve, int((left_kept == 0).sum() + (right_kept == 0).sum())


def _check_length(series: TimeSeries, h: int) -> None:
    if series.n < 4 * h:
        raise SeriesTooShort(f"need n >= 4h = {4 * h}, got n = {series.n}")


def _finite_scan(scan: Callable[[], Tuple[np.ndarray, int]],
                 h: int) -> Tuple[np.ndarray, int]:
    """scan() with numpy's float warnings silenced; raises NonFiniteScan at
    the first scan index whose value is NaN or infinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        curve, degenerate = scan()
    bad = np.flatnonzero(~np.isfinite(curve))
    if bad.size:
        raise NonFiniteScan(2 * h + int(bad[0]))
    return curve, degenerate


def scan_statistic(series: TimeSeries, config: DetectionConfig) -> Dict[int, float]:
    """Map each scan index j in {2h, ..., n-2h} to the statistic value.

    Raises NonFiniteScan rather than return a NaN or infinite value.
    """
    _check_length(series, config.h)
    curve, _ = _finite_scan(lambda: _scan_arrays(series, config), config.h)
    return {2 * config.h + i: float(v) for i, v in enumerate(curve)}


def _local_max_mask(values: np.ndarray, radius: int) -> np.ndarray:
    """Boolean mask of local maximizers with leftmost-of-tied-run rule.

    A maximizer dominates (weakly) every index at distance < radius. Within
    a maximal run of consecutive equal-valued maximizers only the first
    index survives.
    """
    # window of size 2*radius-1 centered at each index covers exactly the
    # open neighborhood; edge replication never exceeds in-domain values
    filt = maximum_filter1d(values, size=2 * radius - 1, mode="nearest")
    mask = values >= filt
    if values.size > 1:
        tied_prev = mask[1:] & mask[:-1] & (values[1:] == values[:-1])
        mask[1:] &= ~tied_prev
    return mask


def local_maximizers(curve, radius: int) -> List[int]:
    """All indices dominating their open +-radius neighborhood.

    Accepts a mapping from contiguous integer indices to values, or a plain
    sequence (then positions 0..len-1 are the indices).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if isinstance(curve, Mapping):
        keys = sorted(curve)
        if keys and keys[-1] - keys[0] + 1 != len(keys):
            raise ValueError("curve indices must be contiguous")
        values = np.asarray([curve[k] for k in keys], dtype=np.float64)
        offset = keys[0] if keys else 0
    else:
        values = np.asarray(curve, dtype=np.float64)
        offset = 0
    if values.size == 0:
        return []
    mask = _local_max_mask(values, radius)
    return [int(i) + offset for i in np.flatnonzero(mask)]


def _resolve_sigma(series: TimeSeries, config: DetectionConfig) -> float:
    if config.sigma is not None:
        return config.sigma
    try:
        return mad_sigma(series)
    except DegenerateScale as err:
        raise LambdaResolutionFailure(
            f"automatic scale estimate failed: {err}") from err


def _scan_report(series: TimeSeries, config: DetectionConfig,
                 threshold: Callable[[float], float],
                 scan: Callable[[], Tuple[np.ndarray, int]],
                 epsilon_effective: float) -> RunReport:
    """The steps every scan shares around its statistic.

    threshold maps the noise scale to lambda; scan() returns the curve over
    j = 2h..n-2h and its degenerate window count, and a NaN or infinite
    value in it raises NonFiniteScan. Detections are the local maximizers
    strictly above lambda.
    """
    h = config.h
    lam = threshold(_resolve_sigma(series, config))
    if lam <= 0:
        raise LambdaResolutionFailure(f"resolved lambda {lam} is not positive")
    _check_length(series, h)
    curve, degenerate = _finite_scan(scan, h)
    radius = config.maximizer_radius or 4 * h
    detected = 2 * h + np.flatnonzero(_local_max_mask(curve, radius) &
                                      (curve > lam))
    return RunReport(
        scan_curve={2 * h + i: float(v) for i, v in enumerate(curve)},
        estimated=ChangePointSet(tuple(int(j) for j in detected), series.n),
        degenerate_windows=degenerate,
        lambda_used=lam,
        epsilon_effective=epsilon_effective,
        seed_used=config.seed,
    )


def detect(series: TimeSeries, config: DetectionConfig) -> RunReport:
    """One full detection run: scan, find maximizers, threshold strictly."""
    n, h = series.n, config.h
    eps_eff = effective_epsilon(config.epsilon, _resolve_delta(config, n), h)
    return _scan_report(
        series, config,
        lambda sigma: resolve_lambda(config.lambda_policy, sigma=sigma,
                                     epsilon=config.epsilon,
                                     epsilon_eff=eps_eff, h=h, n=n),
        lambda: _scan_arrays(series, config), eps_eff)


def baseline_scan(series: TimeSeries, config: DetectionConfig) -> RunReport:
    """Non-robust control: plain window means, fixed classical threshold.

    Uses config's h, maximizer radius, sigma and seed bookkeeping; the
    contamination level, delta, and lambda policy are ignored by design.
    """
    n, h = series.n, config.h

    def scan() -> Tuple[np.ndarray, int]:
        sums = np.concatenate(([0.0], np.cumsum(series.values)))
        js = np.arange(2 * h, n - 2 * h + 1)
        left = (sums[js] - sums[js - 2 * h]) / (2 * h)
        right = (sums[js + 2 * h] - sums[js]) / (2 * h)
        return np.abs(right - left), 0

    return _scan_report(series, config,
                        lambda sigma: 3.0 * sigma * math.sqrt(math.log(n) / h),
                        scan, 0.0)


def _summary(report: RunReport) -> RunSummary:
    return RunSummary(
        k_hat=report.estimated.k,
        locations=report.estimated.locations,
        lambda_used=report.lambda_used,
        epsilon_effective=report.epsilon_effective,
        degenerate_windows=report.degenerate_windows,
        seed_used=report.seed_used,
    )


def _lower_median(column: np.ndarray) -> int:
    ordered = np.sort(column)
    return int(ordered[(ordered.size - 1) // 2])


def detect_repeated(series: TimeSeries, config: DetectionConfig,
                    runs: int) -> AggregateReport:
    """Aggregate R randomized runs; run r uses a seed derived from (seed, r).

    The modal count breaks ties toward the smaller value. Consensus
    locations are coordinatewise lower medians over the modal-count runs,
    which keeps them integers and strictly increasing.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    summaries = []
    for r in range(1, runs + 1):
        seed_r = substream(config.seed, r).child_seed()
        summaries.append(_summary(detect(series, replace(config, seed=seed_r))))

    histogram = Counter(s.k_hat for s in summaries)
    top = max(histogram.values())
    modal_k = min(k for k, c in histogram.items() if c == top)
    modal_runs = [s for s in summaries if s.k_hat == modal_k]
    if modal_k == 0:
        consensus = ChangePointSet((), series.n)
    else:
        stacked = np.asarray([s.locations for s in modal_runs], dtype=np.int64)
        consensus = ChangePointSet(
            tuple(_lower_median(stacked[:, c]) for c in range(modal_k)),
            series.n)
    return AggregateReport(
        runs=runs,
        khat_histogram=dict(sorted(histogram.items())),
        modal_k=modal_k,
        consensus_locations=consensus,
        per_run=tuple(summaries),
    )


def _w_lower(theta: float) -> float:
    """Window growth factor 1 / (1/2 - sqrt(2*theta*(1-2*theta)))."""
    return 1.0 / (0.5 - math.sqrt(2.0 * theta * (1.0 - 2.0 * theta)))


def recommend_h(n: int, epsilon: float, kappa_over_sigma: float,
                C_prime: float = 1.0,
                C_lambda: float = DEFAULT_C_LAMBDA) -> Optional[Tuple[int, int]]:
    """Feasible window half-widths for a given problem regime.

    Returns an inclusive integer interval (both strict bounds already
    applied), intersected with [2, n // 4], or None when the regime admits
    no consistent window choice.

    The bounds are sufficient, not necessary: None does not mean detection
    fails. At epsilon = 0.1 and kappa / sigma >= 0.76 the strict bounds
    10 * C' * log(n) and C' * log(n) / epsilon coincide, so this returns
    None for every n; yet in the README quick start (n = 5000, epsilon =
    0.1, kappa / sigma = 1) h = 170 recovers all three changes.
    """
    if not (0.0 <= epsilon < 0.5):
        raise ValueError("epsilon must lie in [0, 0.5)")
    if n < 2:
        raise ValueError("n must be >= 2")
    log_n = math.log(n)
    r = kappa_over_sigma
    if epsilon <= 0.1:
        if r <= 0:
            return None
        lower = max(10.0, 4.0 * C_lambda ** 2 / r ** 2) * C_prime * log_n
        upper = C_prime * log_n / epsilon if epsilon > 0 else math.inf
    elif r > 0 and epsilon < 0.25 * min(1.0, r ** 2 / C_lambda ** 2):
        lower = _w_lower(epsilon) * C_prime * log_n
        upper = math.inf
    else:
        return None
    lo = max(math.floor(lower) + 1, 2)
    hi = n // 4 if math.isinf(upper) else min(math.ceil(upper) - 1, n // 4)
    if lo > hi:
        return None
    return (lo, hi)
