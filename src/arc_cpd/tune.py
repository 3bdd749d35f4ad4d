"""Automatic contamination-level selection by a pairwise tournament.

A grid of candidate levels is fitted on a training slice of the series: each
candidate eps_j yields a robust location estimate theta_j (the training slice
is treated as a single window of half-width T // 2). Candidates then play
pairwise tests. For the ordered pair (j, k) the test asks which of the two
Gaussian models N(theta_j, sigma^2), N(theta_k, sigma^2) better predicts the
empirical frequency of the density-comparison event

    E_jk = { y : |y - theta_j| < |y - theta_k| }

and charges a point to j when the answer is k. The candidate with the fewest
points wins; the smallest grid value wins ties. Candidates whose level makes
the window-feasibility condition fail, for the training half-width or for
the detection half-width, sit out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from .core import (NoFeasibleCandidate, RngStream, TimeSeries, _check_int,
                   _check_real)
from .rume import _feasibility, _rume_batch, trimming_span
from .rume import rume  # noqa: F401  perfbench/tracer.py wraps tune.rume

__all__ = [
    "DEFAULT_GRID_SIZE",
    "default_grid",
    "TournamentConfig",
    "TournamentResult",
    "pairwise_test",
    "tournament",
    "select_epsilon",
]

DEFAULT_GRID_SIZE = 201

# two candidates fitted from the same split and kept interval agree exactly
# in real arithmetic but only to rounding once the data carry a constant
# offset; gaps at this relative scale are ties, far below any statistically
# meaningful separation (~ 1 / sqrt(h))
_EQUAL_RTOL = 1e-9

# the distance comparison |p_hat - P_j| > |p_hat - P_k| ties exactly whenever
# the empirical frequency hits the midpoint of the two references (p_hat = 1/2
# does this for every pair); a strict inequality on a tie is false, so demand
# a margin clear of evaluation noise
_MARGIN_ATOL = 1e-12


def _beats(ranked: np.ndarray, sorted_training: np.ndarray,
           sigma: float) -> np.ndarray:
    """k x k 0/1 matrix over ascending estimates: entry (a, b) is 1 where
    ranked[b] predicts the frequency of E_ab better; tied estimates score 0.

    Each unordered pair lo < hi is visited once: its midpoint, gap and tie
    flag serve both orientations. E_lo,hi = {y < mid} is counted by a left
    search of the sorted training and E_hi,lo = {y > mid} as t minus a
    right search. The (hi, lo) CDF arguments are the exact negations of
    the (lo, hi) ones, since (-x) / sigma == -(x / sigma).
    """
    t = sorted_training.size
    k = ranked.size
    upper = ~np.tri(k, dtype=bool)  # entry (a, b) with a < b
    lo = np.broadcast_to(ranked[:, None], (k, k))[upper]
    hi = np.broadcast_to(ranked, (k, k))[upper]
    mid = 0.5 * lo + 0.5 * hi  # a plain sum can overflow
    # past float max a gap is no tie, and the CDF's limit at inf is exact
    with np.errstate(over="ignore"):
        u, v = (mid - lo) / sigma, (mid - hi) / sigma
        gap = hi - lo
    scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    tie = gap <= _EQUAL_RTOL * scale
    below = np.searchsorted(sorted_training, mid, side="left")
    # #{y <= mid} differs from #{y < mid} only where mid hits a value
    upto = below.copy()
    hit = sorted_training[np.minimum(below, t - 1)] == mid
    upto[hit] = np.searchsorted(sorted_training, mid[hit], side="right")
    p_below, p_above = below / t, (t - upto) / t
    out = np.zeros((k, k), dtype=np.int64)
    out[upper] = ~tie & (np.abs(p_below - ndtr(u)) - np.abs(p_below - ndtr(v))
                         > _MARGIN_ATOL)
    out.T[upper] = ~tie & (np.abs(p_above - ndtr(-v))
                           - np.abs(p_above - ndtr(-u)) > _MARGIN_ATOL)
    return out


def default_grid(size: int = DEFAULT_GRID_SIZE) -> Tuple[float, ...]:
    """Equally spaced candidate levels from 0 to 0.25."""
    _check_int("grid size", size, 2)
    return tuple(float(x) for x in np.linspace(0.0, 0.25, size))


@dataclass(frozen=True)
class TournamentConfig:
    """Candidate grid, training slice, and reference noise scale.

    training_range is a half-open 0-based (start, stop) index interval.
    """

    grid: Tuple[float, ...] = default_grid()
    training_range: Tuple[int, int] = (0, 300)
    sigma: float = 1.0

    def __post_init__(self):
        # one pass over the values: run_grid builds a config per aarc rep
        g = tuple(_check_real("grid values", x, 0.0, 0.5, closed_low=True)
                  for x in self.grid)
        if len(g) < 1:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", g)
        a, b = self.training_range
        a = _check_int("training range start", a, 0)
        b = _check_int("training range stop", b, a + 2)  # 2 points or more
        object.__setattr__(self, "training_range", (a, b))
        _check_real("sigma", self.sigma)


@dataclass(frozen=True)
class TournamentResult:
    """Full tournament record; selected is an index into the config grid."""

    epsilon_selected: float
    selected_index: int
    scores: Tuple[Optional[int], ...]
    estimates: Tuple[Optional[float], ...]
    feasible: Tuple[bool, ...]


def pairwise_test(theta_j: float, theta_k: float,
                  training: Sequence[float], sigma: float) -> int:
    """1 when theta_k predicts the comparison-event frequency better, else 0.

    Equal estimates carry no information and score 0. A two-row call of
    the pair kernel the tournament runs: the pair is sorted and its entry
    read in the pair's orientation. Raises ValueError on empty or
    non-finite training and on a non-finite estimate.
    """
    _check_real("sigma", sigma)
    y = np.sort(np.asarray(training, dtype=np.float64))
    if y.ndim != 1 or y.size == 0:
        raise ValueError("training must be one-dimensional and nonempty")
    if not (np.isfinite(y).all() and np.isfinite([theta_j, theta_k]).all()):
        raise ValueError("training values and estimates must be finite")
    # a two-row call; row 0 holds the lower estimate
    beats = _beats(np.sort(np.asarray([theta_j, theta_k], dtype=np.float64)),
                   y, sigma)
    return int(beats[1, 0] if theta_k < theta_j else beats[0, 1])


def _training_window(series: TimeSeries,
                     tc: TournamentConfig) -> np.ndarray:
    a, b = tc.training_range
    if b > series.n:
        raise ValueError(
            f"training range {a}:{b} exceeds series length {series.n}")
    window = series.values[a:b]
    # the window is consumed as one even-width block; an odd slice drops
    # its final point
    if window.size % 2 == 1:
        window = window[:-1]
    return window


def tournament(series: TimeSeries, tc: TournamentConfig, detection_h: int,
               delta: float, rng: RngStream) -> TournamentResult:
    """Run the full candidate tournament and report scores per grid point.

    Each stage is one call over all levels. The feasibility condition is
    evaluated over the whole grid once at h_train and once at
    detection_h, with the bits of is_feasible and trimming_span per level.
    The training window is sorted once. Every feasible candidate j is then
    one row of a single estimator call over that sorted window: span
    trimming_span(h_train, grid[j], delta) and stream substream(base, j)
    with base = rng.child_seed(), so estimates[j] equals rume(window,
    RumeParams(grid[j], delta), substream(base, j)) bit for bit and
    feasibility filtering never shifts the randomness of other candidates.
    All pairs then play in one call of the pair kernel over the same sorted
    window, the estimates in ascending order: each unordered pair is
    evaluated once and decides both orientations, so scores[j] counts the
    feasible k with pairwise_test(estimates[j], estimates[k], window,
    sigma) == 1.
    """
    _check_int("detection_h", detection_h, 2)
    _check_real("delta", delta, 0.0, 1.0)
    window = _training_window(series, tc)
    h_train = window.size // 2
    grid = np.asarray(tc.grid)

    _, value, spans = _feasibility(h_train, grid, delta)
    feasible = (value < 0.5) & (_feasibility(detection_h, grid, delta)[1] < 0.5)
    if not feasible.any():
        raise NoFeasibleCandidate(
            f"no grid level passes the feasibility condition at "
            f"h_train = {h_train} and h = {detection_h} with delta = {delta:g}")
    if window.size < 4:
        raise ValueError("training window must hold >= 4 values")

    alive = np.flatnonzero(feasible)
    k = alive.size
    spans = spans[alive]
    # a feasible level has span D = h when delta lies within rounding of 1;
    # trimming_span raises for the first of them
    wide = alive[spans > h_train - 1]
    if wide.size:
        trimming_span(h_train, tc.grid[wide[0]], delta)
    ascending = np.sort(window)
    theta = _rume_batch(np.broadcast_to(ascending, (k, window.size)), alive,
                        rng.child_seed(), spans.astype(np.int64))[0]

    # pairs play in ascending order of estimate, so the search keys of
    # each row ascend too
    order = np.argsort(theta, kind="stable")
    ranked = theta[order]
    alive_scores = np.empty(k, dtype=np.int64)
    alive_scores[order] = _beats(ranked, ascending, tc.sigma).sum(axis=1)

    # None marks the infeasible levels
    estimates, scores = np.full((2, grid.size), None)
    estimates[alive], scores[alive] = theta.tolist(), alive_scores.tolist()
    best_pos = int(np.argmin(alive_scores))
    best = int(alive[best_pos])
    assert 0 <= alive_scores[best_pos] <= k - 1

    return TournamentResult(
        epsilon_selected=tc.grid[best],
        selected_index=best,
        scores=tuple(scores.tolist()),
        estimates=tuple(estimates.tolist()),
        feasible=tuple(feasible.tolist()),
    )


def select_epsilon(series: TimeSeries, tc: TournamentConfig,
                   detection_h: int, delta: float, rng: RngStream) -> float:
    """Winning contamination level; smallest grid value on tied scores."""
    return tournament(series, tc, detection_h, delta, rng).epsilon_selected
