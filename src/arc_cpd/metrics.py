"""Evaluation metrics for estimated change point sets.

Three views of estimation quality: the two-sided Hausdorff distance between
location sets (localization), the covering metric between the segments the
locations cut (segmentation overlap), and the count error (model selection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChangePointSet

__all__ = ["MetricReport", "hausdorff", "covering", "count_error", "score"]


@dataclass(frozen=True)
class MetricReport:
    hausdorff: float
    scaled_hausdorff: float
    count_error: int
    covering: float


def hausdorff(a: ChangePointSet, b: ChangePointSet) -> float:
    """Two-sided Hausdorff distance between two location sets.

    Conventions: 0 when both sets are empty, +inf when exactly one is.
    """
    if a.n != b.n:
        raise ValueError("sets must refer to the same series length")
    if a.k == 0 and b.k == 0:
        return 0.0
    if a.k == 0 or b.k == 0:
        return math.inf
    xs = np.asarray(a.locations, dtype=np.int64)
    ys = np.asarray(b.locations, dtype=np.int64)
    gaps = np.abs(xs[:, None] - ys[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def _blocks(cps: ChangePointSet) -> list:
    """The inclusive 1-based (start, stop) segments that cps cuts 1..n into."""
    bounds = (0,) + cps.locations + (cps.n,)
    return [(a + 1, b) for a, b in zip(bounds, bounds[1:])]


def _jaccard(a, b) -> float:
    """Jaccard index of two inclusive integer intervals, as index sets."""
    inter = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if inter <= 0:
        return 0.0
    union = (a[1] - a[0] + 1) + (b[1] - b[0] + 1) - inter
    return inter / union


def covering(estimated: ChangePointSet, truth: ChangePointSet) -> float:
    """Truth-segment-weighted maximal Jaccard overlap of the segments the
    two sets cut, in [0, 1].

    Directional: truth segments carry the weights, so transposing the
    arguments changes the value. Estimated comes first in the signature.
    """
    if estimated.n != truth.n:
        raise ValueError("sets must refer to the same series length")
    ours = _blocks(estimated)
    total = 0.0
    for block in _blocks(truth):
        size = block[1] - block[0] + 1
        total += size * max(_jaccard(block, other) for other in ours)
    return total / truth.n


def count_error(a: ChangePointSet, b: ChangePointSet) -> int:
    """Absolute difference of the two set sizes."""
    return abs(a.k - b.k)


def score(estimated: ChangePointSet, truth: ChangePointSet) -> MetricReport:
    """All metrics of an estimate against a ground truth."""
    d = hausdorff(estimated, truth)
    return MetricReport(
        hausdorff=d,
        scaled_hausdorff=d / truth.n,
        count_error=count_error(estimated, truth),
        covering=covering(estimated, truth),
    )
