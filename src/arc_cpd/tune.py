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

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.stats import norm

from .core import NoFeasibleCandidate, RngStream, TimeSeries
from .rume import _rume_batch, is_feasible, trimming_span
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


def _ties(theta_j, theta_k):
    gap = np.abs(theta_j - theta_k)
    scale = np.maximum(1.0, np.maximum(np.abs(theta_j), np.abs(theta_k)))
    return gap <= _EQUAL_RTOL * scale


def default_grid(size: int = DEFAULT_GRID_SIZE) -> Tuple[float, ...]:
    """Equally spaced candidate levels from 0 to 0.25."""
    if size < 2:
        raise ValueError("grid size must be >= 2")
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
        g = tuple(float(x) for x in self.grid)
        if len(g) < 1:
            raise ValueError("grid must be nonempty")
        if any(not (0.0 <= x < 0.5) for x in g):
            raise ValueError("grid values must lie in [0, 0.5)")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", g)
        a, b = self.training_range
        if b - a < 2:
            raise ValueError("training range must contain at least 2 points")
        if a < 0:
            raise ValueError("training range start must be >= 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


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

    Equal estimates carry no information and score 0.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if _ties(theta_j, theta_k):
        return 0
    y = np.asarray(training, dtype=np.float64)
    t = y.size
    mid = 0.5 * (theta_j + theta_k)
    # E_jk = {y closer to theta_j}: below the midpoint when theta_j is the
    # smaller model, above it when the larger
    if theta_j < theta_k:
        p_hat = np.count_nonzero(y < mid) / t
        sign = 1.0
    else:
        p_hat = np.count_nonzero(y > mid) / t
        sign = -1.0
    p_j = norm.cdf(sign * (mid - theta_j) / sigma)
    p_k = norm.cdf(sign * (mid - theta_k) / sigma)
    return int(abs(p_hat - p_j) - abs(p_hat - p_k) > _MARGIN_ATOL)


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

    Every feasible candidate j is one row of a single estimator call over
    the training window: span trimming_span(h_train, grid[j], delta) and
    stream substream(base, j) with base = rng.child_seed(), so estimates[j]
    equals rume(window, RumeParams(grid[j], delta), substream(base, j))
    bit for bit and feasibility filtering never shifts the randomness of
    other candidates.
    """
    if detection_h < 2:
        raise ValueError("detection_h must be >= 2")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    window = _training_window(series, tc)
    h_train = window.size // 2
    m = len(tc.grid)

    feasible = [is_feasible(h_train, e, delta) and
                is_feasible(detection_h, e, delta) for e in tc.grid]
    if not any(feasible):
        raise NoFeasibleCandidate(
            f"no grid level passes the feasibility condition at "
            f"h_train = {h_train} and h = {detection_h} with delta = {delta:g}")
    if window.size < 4:
        raise ValueError("training window must hold >= 4 values")

    alive = [j for j in range(m) if feasible[j]]
    k = len(alive)
    spans = [trimming_span(h_train, tc.grid[j], delta) for j in alive]
    theta = _rume_batch(np.broadcast_to(window, (k, window.size)), alive,
                        rng.child_seed(), np.asarray(spans))[0]

    # all pairwise midpoints; strict event counts via one sorted pass
    sorted_y = np.sort(window)
    t = sorted_y.size
    mid = 0.5 * (theta[:, None] + theta[None, :])
    below = np.searchsorted(sorted_y, mid, side="left") / t
    above = 1.0 - np.searchsorted(sorted_y, mid, side="right") / t
    smaller = theta[:, None] < theta[None, :]
    p_hat = np.where(smaller, below, above)
    sign = np.where(smaller, 1.0, -1.0)
    p_row = norm.cdf(sign * (mid - theta[:, None]) / tc.sigma)
    p_col = norm.cdf(sign * (mid - theta[None, :]) / tc.sigma)
    phi = (np.abs(p_hat - p_row) - np.abs(p_hat - p_col)
           > _MARGIN_ATOL).astype(np.int64)
    np.fill_diagonal(phi, 0)
    phi[_ties(theta[:, None], theta[None, :])] = 0
    alive_scores = phi.sum(axis=1)

    estimates: list = [None] * m
    scores: list = [None] * m
    for pos, j in enumerate(alive):
        estimates[j], scores[j] = float(theta[pos]), int(alive_scores[pos])
    best_pos = int(np.argmin(alive_scores))
    best = alive[best_pos]
    assert 0 <= alive_scores[best_pos] <= k - 1

    return TournamentResult(
        epsilon_selected=tc.grid[best],
        selected_index=best,
        scores=tuple(scores),
        estimates=tuple(estimates),
        feasible=tuple(feasible),
    )


def select_epsilon(series: TimeSeries, tc: TournamentConfig,
                   detection_h: int, delta: float, rng: RngStream) -> float:
    """Winning contamination level; smallest grid value on tied scores."""
    return tournament(series, tc, detection_h, delta, rng).epsilon_selected
