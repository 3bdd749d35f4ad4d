"""Robust univariate mean estimation on a window of 2h points.

The estimator defends against an eps fraction of arbitrarily placed
contamination. Given a window of 2h values and a failure level delta in
(0, 1):

1. Sort the window and randomly split it into halves Z and Z' of size h
   (a seeded index shuffle; the first h shuffled positions form Z).
2. Inflate the contamination rate: eps_eff = max(eps, log(1/delta) / h).
3. Compute the trimming span

       D = floor(h * (1 - 2*eps_eff - 2*sqrt(eps_eff * x) - x)),
       x = log(1/delta) / h.

   D is the number of order-statistic steps the kept interval must span;
   feasibility requires 1 <= D <= h - 1, which is guaranteed whenever

       2*eps_eff + 2*sqrt(eps_eff * x) + x < 1/2.                (feasibility)

4. Over j in {1, ..., h - D}, find the shortest interval
   [Z_(j), Z_(j+D)] between order statistics of Z (smallest j on ties).
5. Return the mean of the Z' points inside that closed interval. If no Z'
   point falls inside, fall back to the median of the full window and flag
   the outcome as degenerate.

Windows whose extremes could overflow a sum of 2h terms take the shorth
widths as 0.5*high - 0.5*low, the mean as a sum of pre-divided terms and
the median as 0.5*a + 0.5*b.

Splitting the window keeps the interval selection independent of the points
being averaged, which is what drives the estimator's error bound of order
sigma * sqrt(eps_eff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import InfeasibleWindow, RngStream

__all__ = [
    "RumeParams",
    "RumeOutcome",
    "effective_epsilon",
    "feasibility_value",
    "is_feasible",
    "trimming_span",
    "auto_delta",
    "shorth_interval",
    "rume",
]


@dataclass(frozen=True)
class RumeParams:
    """Contamination bound and failure level for one estimation call."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 0.5):
            raise ValueError("epsilon must lie in [0, 0.5)")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class RumeOutcome:
    """Result of one estimation: the trimmed mean and how it was obtained.

    interval is the selected [low, high]; kept_count is the number of
    held-out points inside it. When degenerate is True the estimate is the
    full-window median because the interval captured no held-out point.
    """

    estimate: float
    interval: Tuple[float, float]
    kept_count: int
    degenerate: bool


_FLOAT_MAX = float(np.finfo(np.float64).max)


def _may_overflow(lowest, highest, width: int):
    """Whether a sum of `width` terms within [lowest, highest] can overflow.

    Elementwise on arrays; shared by the scalar and batch estimators so both
    pick the same arithmetic for every window.
    """
    bound = _FLOAT_MAX / width
    return (lowest < -bound) | (highest > bound)


def effective_epsilon(epsilon: float, delta: float, h: int) -> float:
    """Inflated contamination rate max(epsilon, log(1/delta) / h)."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    return max(epsilon, math.log(1.0 / delta) / h)


def feasibility_value(h: int, epsilon: float, delta: float) -> float:
    """Left-hand side of the feasibility condition; must be < 1/2."""
    x = math.log(1.0 / delta) / h
    eps_eff = max(epsilon, x)
    return 2.0 * eps_eff + 2.0 * math.sqrt(eps_eff * x) + x


def is_feasible(h: int, epsilon: float, delta: float) -> bool:
    return feasibility_value(h, epsilon, delta) < 0.5


def trimming_span(h: int, epsilon: float, delta: float) -> int:
    """The span D of step (3); raises InfeasibleWindow outside [1, h-1]."""
    x = math.log(1.0 / delta) / h
    eps_eff = max(epsilon, x)
    d = math.floor(h * (1.0 - 2.0 * eps_eff - 2.0 * math.sqrt(eps_eff * x) - x))
    if d < 1 or d > h - 1:
        raise InfeasibleWindow(h, epsilon, delta, eps_eff,
                               feasibility_value(h, epsilon, delta), d)
    return d


def _max_log_ratio(epsilon: float) -> float:
    """Largest x = log(1/delta)/h keeping the feasibility value below 1/2.

    For eps < 0.1 the binding branch is eps_eff = x, giving 5x < 1/2; for
    eps >= 0.1 it is eps_eff = eps, giving x < (sqrt(1/2-eps) - sqrt(eps))^2.
    Returns 0 when no delta can work (eps >= 1/4).
    """
    if epsilon >= 0.25:
        return 0.0
    if epsilon < 0.1:
        return 0.1
    return (math.sqrt(0.5 - epsilon) - math.sqrt(epsilon)) ** 2


def auto_delta(n: int, h: int, epsilon: float, slack: float = 0.5) -> float:
    """Pick a failure level: 1/n when feasible, else the smallest workable scale.

    The default delta = 1/n is the right choice when the window can afford
    it. Aggressive contamination rates or small windows can make 1/n
    infeasible; in that case delta is inflated to exp(-slack * h * x_max)
    where x_max is the largest feasible log(1/delta)/h, i.e. the feasibility
    budget is spent at the given slack fraction. Raises InfeasibleWindow when
    no delta in (0, 1) can satisfy the condition.
    """
    if not (0.0 < slack < 1.0):
        raise ValueError("slack must lie in (0, 1)")
    if n < 2 or h < 2:
        raise ValueError("need n >= 2 and h >= 2")
    if is_feasible(h, epsilon, 1.0 / n):
        return 1.0 / n
    x_max = _max_log_ratio(epsilon)
    if x_max <= 0.0:
        raise InfeasibleWindow(h, epsilon, 1.0 / n,
                               effective_epsilon(epsilon, 1.0 / n, h),
                               feasibility_value(h, epsilon, 1.0 / n), 0)
    return math.exp(-slack * h * x_max)


def shorth_interval(sorted_half: Sequence[float], d: int,
                    halved: Optional[bool] = None):
    """Shortest interval spanning d order-statistic steps of a sorted sample.

    Returns ((low, high), j_star) where j_star is the 1-based index of the
    left endpoint among the order statistics; the smallest j wins exact ties.
    With halved set, widths are taken as 0.5*high - 0.5*low, which cannot
    overflow and, halving being exact for normal floats, ranks them as the
    plain differences do. None halves when the sample's extremes could
    overflow a difference; rume passes its window's overflow flag instead,
    so the scalar and batch estimators pick the same arithmetic.
    """
    z = np.asarray(sorted_half, dtype=np.float64)
    h = z.size
    if not (1 <= d <= h - 1):
        raise ValueError("need 1 <= d <= h - 1")
    if halved is None:
        halved = _may_overflow(z[0], z[-1], 2)
    zw = 0.5 * z if halved else z
    widths = zw[d:] - zw[:h - d]
    j0 = int(np.argmin(widths))  # argmin returns the first minimum
    return (float(z[j0]), float(z[j0 + d])), j0 + 1


def rume(window: Sequence[float], params: RumeParams, rng: RngStream) -> RumeOutcome:
    """Estimate the mean of a 2h window under contamination.

    The window is sorted before the seeded split, so the outcome depends
    only on the window's value multiset and the stream. Raises
    InfeasibleWindow when (h, epsilon, delta) admit no valid span.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 1 or w.size < 4:
        raise ValueError("window must be one-dimensional with >= 4 values")
    if w.size % 2 != 0:
        raise ValueError("window length must be even (two equal halves)")
    if not np.isfinite(w).all():
        raise ValueError("window values must be finite")
    h = w.size // 2

    d = trimming_span(h, params.epsilon, params.delta)
    ws = np.sort(w)
    perm = rng.generator().permutation(2 * h)
    z = ws[np.sort(perm[:h])]        # sorted positions keep z ascending
    z_held = ws[np.sort(perm[h:])]

    big = _may_overflow(ws[0], ws[-1], 2 * h)
    (low, high), _ = shorth_interval(z, d, halved=big)
    inside = (z_held >= low) & (z_held <= high)
    kept = int(inside.sum())
    # same formulas as the batch path
    if kept == 0:
        # middle pair of the sorted window
        if big:
            estimate = 0.5 * ws[h - 1] + 0.5 * ws[h]
        else:
            estimate = 0.5 * (ws[h - 1] + ws[h])
        return RumeOutcome(float(estimate), (low, high), 0, True)
    if big:
        estimate = float(np.where(inside, z_held / kept, 0.0).sum())
    else:
        estimate = float(np.where(inside, z_held, 0.0).sum() / kept)
    return RumeOutcome(estimate, (low, high), kept, False)
