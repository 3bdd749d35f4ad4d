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

One row-wise kernel, `_rume_batch`, computes the estimator for the scan,
the tournament and `rume` alike. Windows whose extremes could overflow a
sum of 2h terms take the shorth widths as 0.5*high - 0.5*low, the mean as
a sum of pre-divided terms clipped into the kept interval and the median
as 0.5*a + 0.5*b.

Splitting the window keeps the interval selection independent of the points
being averaged, which is what drives the estimator's error bound of order
sigma * sqrt(eps_eff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .core import InfeasibleWindow, RngStream, substream

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

    Elementwise on arrays.
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


# batch size for the vectorized window pipeline; bounds peak memory at
# roughly chunk * 2h * 8 bytes per intermediate array
_CHUNK = 1024


def _shortest(z: np.ndarray, spans: np.ndarray,
              half: np.ndarray) -> np.ndarray:
    """Left end (0-based, first on ties) of the shortest interval spanning
    spans[i] steps of each ascending row z[i]. Rows with half 0.5 compare
    widths of halved values, which cannot overflow and, halving being exact
    for normal floats, rank as the plain widths do."""
    zw = z * half[:, None]
    j0 = np.empty(len(z), dtype=np.int64)
    for d in np.unique(spans):  # rows sharing a span share one width pass
        rows = spans == d
        part = zw if rows.all() else zw[rows]
        j0[rows] = (part[:, d:] - part[:, :-d]).argmin(axis=1)
    return j0


def _rume_batch(windows: np.ndarray, stream_ids: Sequence[int], seed: int,
                spans: Union[int, np.ndarray]):
    """The estimator over many windows of equal width 2h, one per row.

    Row i is split by substream(seed, stream_ids[i]) and trimmed with span
    spans[i]; one int serves every row. The outcome depends only on each
    row's value multiset and stream. Returns (estimates, lows, highs, kept):
    a row with kept == 0 is degenerate and its estimate is the median of
    the window.
    """
    m, width = windows.shape
    h = width // 2
    spans = np.broadcast_to(spans, (m,))
    estimates, lows, highs = np.empty((3, m))
    kept = np.empty(m, dtype=np.int64)

    for start in range(0, m, _CHUNK):
        stop = min(start + _CHUNK, m)
        ws = np.sort(windows[start:stop], axis=1)
        c = stop - start
        perms = np.empty((c, width), dtype=np.int64)
        for i in range(c):
            g = substream(seed, int(stream_ids[start + i])).generator()
            perms[i] = g.permutation(width)
        # sorted positions keep both halves ascending
        z = np.take_along_axis(ws, np.sort(perms[:, :h], axis=1), axis=1)
        z_held = np.take_along_axis(ws, np.sort(perms[:, h:], axis=1), axis=1)

        # rows that could overflow halve before subtracting or adding and
        # sum pre-divided terms; elsewhere (half = 1) the plain formulas
        # keep their bits
        big = _may_overflow(ws[:, 0], ws[:, -1], width)
        half = np.where(big, 0.5, 1.0)
        span = spans[start:stop]
        j0 = _shortest(z, span, half)
        rows = np.arange(c)
        low, high = z[rows, j0], z[rows, j0 + span]

        inside = (z_held >= low[:, None]) & (z_held <= high[:, None])
        count = inside.sum(axis=1)
        divisor = np.maximum(count, 1)
        if big.any():
            z_held[big] /= divisor[big, None]
        with np.errstate(over="ignore"):
            means = (np.where(inside, z_held, 0.0).sum(axis=1) /
                     np.where(big, 1, divisor))
        # rounding can carry a sum of pre-divided terms past the kept
        # interval, and near float max to inf; the mean lies inside it
        means = np.where(big, np.clip(means, low, high), means)
        # middle pair of the sorted window
        mids = (half * ws[:, h - 1] + half * ws[:, h]) * (0.5 / half)
        estimates[start:stop] = np.where(count == 0, mids, means)
        lows[start:stop], highs[start:stop], kept[start:stop] = \
            low, high, count
    return estimates, lows, highs, kept


def shorth_interval(sorted_half: Sequence[float], d: int):
    """Shortest interval spanning d order-statistic steps of a sorted sample.

    Returns ((low, high), j_star) where j_star is the 1-based index of the
    left endpoint among the order statistics; the smallest j wins exact ties.
    Widths are taken as 0.5*high - 0.5*low when the sample's extremes could
    overflow a plain difference.
    """
    z = np.asarray(sorted_half, dtype=np.float64)
    h = z.size
    if not (1 <= d <= h - 1):
        raise ValueError("need 1 <= d <= h - 1")
    half = 0.5 if _may_overflow(z[0], z[-1], 2) else 1.0
    j0 = int(_shortest(z[None, :], np.asarray([d]), np.asarray([half]))[0])
    return (float(z[j0]), float(z[j0 + d])), j0 + 1


def rume(window: Sequence[float], params: RumeParams, rng: RngStream) -> RumeOutcome:
    """Estimate the mean of a 2h window under contamination.

    A one-row call of the kernel the scan and the tournament run. The
    window is sorted before the seeded split, so the outcome depends only
    on the window's value multiset and the stream. Raises InfeasibleWindow
    when (h, epsilon, delta) admit no valid span.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 1 or w.size < 4:
        raise ValueError("window must be one-dimensional with >= 4 values")
    if w.size % 2 != 0:
        raise ValueError("window length must be even (two equal halves)")
    if not np.isfinite(w).all():
        raise ValueError("window values must be finite")

    d = trimming_span(w.size // 2, params.epsilon, params.delta)
    est, low, high, kept = _rume_batch(w[None, :], [rng.stream_id],
                                       rng.master_seed, d)
    return RumeOutcome(float(est[0]), (float(low[0]), float(high[0])),
                       int(kept[0]), bool(kept[0] == 0))
