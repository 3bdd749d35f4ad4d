"""Robust univariate mean estimation on a window of 2h points.

The estimator defends against an eps fraction of arbitrarily placed
contamination. Given a window of 2h values and a failure level delta in
(0, 1):

1. Sort the window and randomly split it into halves Z and Z' of size h
   (a seeded index shuffle; the first h shuffled positions form Z). The
   shuffle is numpy's legacy `RandomState.shuffle` of the positions
   0..2h-1 on the window's PCG64 stream, which NEP 19 freezes and which
   gives the bits of the stream's first `Generator.permutation` of 2h; a
   batch of windows seeds all its streams at once and writes each start
   state straight into one PCG64 (`core._permutations`).
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
the tournament and `rume` alike, in one pass over the rows it is given;
the scan passes its windows a block at a time. A window whose extremes
could overflow a sum of 2h terms runs in one power-of-two unit
(`core._unit`) and is scaled back, which is exact for normal floats;
there, subnormal values lose low bits. A kept mean that rounds outside
its kept interval is clipped into it. One helper, `_feasibility`,
evaluates steps (2) and (3) elementwise over epsilon: the tournament
calls it on the whole grid, and `effective_epsilon`, `trimming_span` and
`auto_delta` are one-level calls.

Splitting the window keeps the interval selection independent of the points
being averaged, which is what drives the estimator's error bound of order
sigma * sqrt(eps_eff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .core import (InfeasibleWindow, RngStream, _check_int, _check_real,
                   _permutations, _unit)

__all__ = [
    "RumeParams",
    "RumeOutcome",
    "effective_epsilon",
    "trimming_span",
    "auto_delta",
    "rume",
]


@dataclass(frozen=True)
class RumeParams:
    """Contamination bound and failure level for one estimation call."""

    epsilon: float
    delta: float

    def __post_init__(self):
        _check_real("epsilon", self.epsilon, 0.0, 0.5, closed_low=True)
        _check_real("delta", self.delta, 0.0, 1.0)


@dataclass(frozen=True)
class RumeOutcome:
    """Result of one estimation: the trimmed mean and how it was obtained.

    interval is the selected [low, high]; kept_count is the number of
    held-out points inside it, and their mean, the estimate, lies in the
    interval. When degenerate is True the estimate is the full-window
    median because the interval captured no held-out point.
    """

    estimate: float
    interval: Tuple[float, float]
    kept_count: int
    degenerate: bool


def _feasibility(h: int, epsilon, delta: float):
    """Steps (2) and (3) at half-width h, elementwise over epsilon.

    Returns (eps_eff, value, span): value is the left-hand side of the
    feasibility condition and span the float floor D. x stays a Python
    float, so every entry has the bits of the scalar formula.
    """
    x = math.log(1.0 / delta) / h
    eps_eff = np.maximum(epsilon, x)
    two_eps, two_root = 2.0 * eps_eff, 2.0 * np.sqrt(eps_eff * x)
    value = two_eps + two_root + x
    span = np.floor(h * (1.0 - two_eps - two_root - x))
    return eps_eff, value, span


def effective_epsilon(epsilon: float, delta: float, h: int) -> float:
    """Inflated contamination rate max(epsilon, log(1/delta) / h)."""
    _check_int("h", h, 1)
    _check_real("delta", delta, 0.0, 1.0)
    return float(_feasibility(h, epsilon, delta)[0])


def trimming_span(h: int, epsilon: float, delta: float) -> int:
    """The span D of step (3); raises InfeasibleWindow outside [1, h-1]."""
    _check_int("h", h, 1)
    _check_real("delta", delta, 0.0, 1.0)
    eps_eff, value, span = _feasibility(h, epsilon, delta)
    d = int(span)
    if d < 1 or d > h - 1:
        raise InfeasibleWindow(h, epsilon, delta, float(eps_eff),
                               float(value), d)
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


# share of the feasibility budget auto_delta spends when 1/n is infeasible
_SLACK = 0.5


def auto_delta(n: int, h: int, epsilon: float) -> float:
    """Pick a failure level: 1/n when feasible, else the smallest workable scale.

    The default delta = 1/n is the right choice when the window can afford
    it. Aggressive contamination rates or small windows can make 1/n
    infeasible; in that case delta is inflated to exp(-0.5 * h * x_max)
    where x_max is the largest feasible log(1/delta)/h, i.e. half the
    feasibility budget is spent. Raises InfeasibleWindow when no delta in
    (0, 1) can satisfy the condition.
    """
    if _check_int("n", n) < 2 or _check_int("h", h) < 2:
        raise ValueError("need n >= 2 and h >= 2")
    eps_eff, value, _ = _feasibility(h, epsilon, 1.0 / n)
    if value < 0.5:
        return 1.0 / n
    x_max = _max_log_ratio(epsilon)
    if x_max <= 0.0:
        raise InfeasibleWindow(h, epsilon, 1.0 / n, float(eps_eff),
                               float(value), 0)
    return math.exp(-_SLACK * h * x_max)


def _shortest(z: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """Left end (0-based, first on ties) of the shortest interval spanning
    spans[i] steps of each ascending row z[i].

    Rows that share one span take one slice difference (the scan's case);
    mixed spans (the tournament's) take every width from one gather. Rows
    come in their unit (`core._unit`), so no real width overflows.
    """
    m, h = z.shape
    if m == 0:
        return np.empty(0, dtype=np.int64)
    d = int(spans[0])
    if (spans == d).all():
        return (z[:, d:] - z[:, :-d]).argmin(axis=1)
    # mixed spans: one gather of every right end, positions past h - 1
    # padded with +inf so they never win
    ends = np.arange(h - spans.min()) + spans[:, None]
    widths = np.take_along_axis(z, np.minimum(ends, h - 1), axis=1)
    widths -= z[:, :ends.shape[1]]
    widths[ends >= h] = np.inf
    return widths.argmin(axis=1)


def _rume_batch(windows: np.ndarray, stream_ids: Sequence[int], seed: int,
                spans: Union[int, np.ndarray]):
    """The estimator over many ascending windows of equal width 2h, one per
    row, in one pass; a caller with many windows passes them a block at a
    time, since each intermediate array holds about rows * 2h values.

    Each row must come sorted ascending, so a caller sorts each distinct
    window once and may pass it for several rows (a broadcast array is
    fine). Row i is split by the permutation of substream(seed,
    stream_ids[i]), all rows' taken in one `_permutations` call: one
    membership mask of the first h shuffled positions picks both halves
    in position order, which is ascending value order. Row i is trimmed
    with span spans[i]; one int serves every row. Each row runs the plain
    formulas in its unit (`core._unit` over 2h terms), its mean clipped
    into the kept interval, and is scaled back: rows of unit 1 keep their
    bits, in the others subnormal values lose low bits. The outcome
    depends only on each row's value multiset and stream. Returns
    (estimates, lows, highs, kept): a row with kept == 0 is degenerate and
    its estimate is the median of the window.
    """
    m, width = windows.shape
    h = width // 2
    spans = np.broadcast_to(spans, (m,))
    unit = _unit(windows[:, 0], windows[:, -1], width)
    perms = _permutations(seed, stream_ids, width)
    rows = np.arange(m)
    # flat positions of each row's first h shuffled positions
    first = np.zeros(windows.size, dtype=bool)
    first[(perms[:, :h] + width * rows[:, None]).ravel()] = True
    flat = windows.ravel()
    z = flat.take(np.flatnonzero(first)).reshape(-1, h)
    z_held = flat.take(np.flatnonzero(~first)).reshape(-1, h)
    z *= unit[:, None]
    z_held *= unit[:, None]

    j0 = _shortest(z, spans)
    low, high = z[rows, j0], z[rows, j0 + spans]

    inside = (z_held >= low[:, None]) & (z_held <= high[:, None])
    kept = inside.sum(axis=1)
    means = (np.where(inside, z_held, 0.0).sum(axis=1) /
             np.maximum(kept, 1))
    # rounding can carry the mean of values at one end of the kept
    # interval past it, as with 48 copies of 0.1; a mean inside keeps
    # its bits, the sign of a zero too
    means = np.where(means < low, low, np.where(means > high, high, means))
    # middle pair of the sorted window
    mids = 0.5 * (windows[:, h - 1] * unit + windows[:, h] * unit)
    estimates = np.where(kept == 0, mids, means) / unit
    return estimates, low / unit, high / unit, kept


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
    est, low, high, kept = _rume_batch(np.sort(w)[None, :], [rng.stream_id],
                                       rng.master_seed, d)
    return RumeOutcome(float(est[0]), (float(low[0]), float(high[0])),
                       int(kept[0]), bool(kept[0] == 0))
