"""Shared domain types, validation, and the deterministic randomness contract.

Everything downstream (estimators, detectors, simulators, benchmarks) builds on
the types in this module. All of them are immutable value objects, safe to
share across threads. Randomness is organized as named substreams: a
(master_seed, stream_id) pair maps to one reproducible generator, so any
computation that owns its stream ids produces bit-identical results no matter
how work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from .detector import LambdaPolicy

__all__ = [
    "ArcCpdError",
    "EmptySeries",
    "NonFiniteValue",
    "DegenerateScale",
    "SeriesTooShort",
    "InfeasibleWindow",
    "SpecInvalid",
    "NoFeasibleCandidate",
    "LambdaResolutionFailure",
    "NonFiniteScan",
    "TimeSeries",
    "ChangePointSet",
    "SegmentPartition",
    "DetectionConfig",
    "RunReport",
    "RngStream",
    "validate_series",
    "substream",
    "mad_sigma",
    "MAD_TO_SIGMA",
]

# Gaussian consistency factor: 1 / Phi^{-1}(3/4).
MAD_TO_SIGMA = 1.4826

_UINT64_MAX = 2**64 - 1


class ArcCpdError(Exception):
    """Base class for all package errors."""


class EmptySeries(ArcCpdError):
    """Raised when a series has no values."""


class NonFiniteValue(ArcCpdError):
    """Raised when a series contains NaN or infinity.

    The offending position is stored 1-based in ``index``.
    """

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(f"non-finite value at position {self.index}")

    def __reduce__(self):
        # rebuild from the field, not from the message in self.args
        return type(self), (self.index,), self.__dict__


class DegenerateScale(ArcCpdError):
    """Raised when the MAD scale estimate is zero."""


class SeriesTooShort(ArcCpdError):
    """Raised when a series cannot host a single scan window pair."""


class InfeasibleWindow(ArcCpdError):
    """Raised when (h, epsilon, delta) leave no valid trimming span.

    Carries the ingredients of the feasibility condition so callers can print
    an actionable diagnostic: the condition requires

        2*eps_eff + 2*sqrt(eps_eff * log(1/delta)/h) + log(1/delta)/h < 1/2

    with eps_eff = max(epsilon, log(1/delta)/h).
    """

    def __init__(self, h: int, epsilon: float, delta: float,
                 epsilon_eff: float, condition_value: float, span: int,
                 scan_index: Optional[int] = None):
        self.h = h
        self.epsilon = epsilon
        self.delta = delta
        self.epsilon_eff = epsilon_eff
        self.condition_value = condition_value
        self.span = span
        self.scan_index = scan_index
        where = "" if scan_index is None else f" at scan index {scan_index}"
        super().__init__(
            f"infeasible window{where}: h={h}, epsilon={epsilon:g}, "
            f"delta={delta:g} give eps_eff={epsilon_eff:.6g}, feasibility "
            f"value {condition_value:.6g} (must be < 0.5), span D={span} "
            f"(must be in [1, h-1])"
        )

    def __reduce__(self):
        # rebuild from the fields, not from the message in self.args
        return type(self), (self.h, self.epsilon, self.delta,
                            self.epsilon_eff, self.condition_value,
                            self.span, self.scan_index), self.__dict__


class SpecInvalid(ArcCpdError):
    """Raised when a generator spec violates its own invariants."""


class NoFeasibleCandidate(ArcCpdError):
    """Raised when every tournament grid point is infeasible."""


class LambdaResolutionFailure(ArcCpdError):
    """Raised when the threshold policy needs an automatic scale estimate
    and the estimate itself fails."""


class NonFiniteScan(ArcCpdError):
    """Raised when finite input still gives a NaN or infinite scan value,
    as when two window means differ by more than float max.

    The first such scan index is stored in ``scan_index``.
    """

    def __init__(self, scan_index: int):
        self.scan_index = int(scan_index)
        super().__init__(f"non-finite scan statistic at scan index "
                         f"{self.scan_index}")

    def __reduce__(self):
        # rebuild from the field, not from the message in self.args
        return type(self), (self.scan_index,), self.__dict__


@dataclass(frozen=True)
class ChangePointSet:
    """Strictly increasing integer change locations within a series of length n.

    A location t means the mean changes between positions t and t+1
    (1-based; t is the last index of the left segment). The empty set is a
    valid value and means "no change points".
    """

    locations: tuple
    n: int

    def __post_init__(self):
        locs = tuple(int(v) for v in self.locations)
        object.__setattr__(self, "locations", locs)
        if self.n < 1:
            raise ValueError("series length must be >= 1")
        for prev, cur in zip(locs, locs[1:]):
            if cur <= prev:
                raise ValueError("locations must be strictly increasing")
        if locs and not (1 <= locs[0] and locs[-1] <= self.n - 1):
            raise ValueError(f"locations must lie in [1, {self.n - 1}]")

    @property
    def k(self) -> int:
        return len(self.locations)

    def to_partition(self) -> "SegmentPartition":
        """Blocks of consecutive indices delimited by the change locations."""
        bounds = (0,) + self.locations + (self.n,)
        blocks = tuple((a + 1, b) for a, b in zip(bounds, bounds[1:]))
        return SegmentPartition(blocks)


@dataclass(frozen=True)
class SegmentPartition:
    """Ordered contiguous integer blocks covering {1, ..., n} exactly once.

    Each block is an inclusive (start, stop) pair, 1-based. Converting to and
    from :class:`ChangePointSet` is a bijection.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple((int(a), int(b)) for a, b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("partition needs at least one block")
        if blocks[0][0] != 1:
            raise ValueError("first block must start at 1")
        for (a, b), (c, d) in zip(blocks, blocks[1:]):
            if c != b + 1:
                raise ValueError("blocks must be contiguous")
        for a, b in blocks:
            if b < a:
                raise ValueError("block stop must be >= start")

    @property
    def n(self) -> int:
        return self.blocks[-1][1]

    def to_change_points(self) -> ChangePointSet:
        return ChangePointSet(tuple(b for _, b in self.blocks[:-1]), self.n)


@dataclass(frozen=True)
class TimeSeries:
    """A finite real-valued sequence with an optional ground-truth annotation."""

    values: np.ndarray
    name: str = "series"
    annotation: Optional[ChangePointSet] = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if arr.size == 0:
            raise EmptySeries("series has no values")
        bad = ~np.isfinite(arr)
        if bad.any():
            raise NonFiniteValue(int(np.argmax(bad)) + 1)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if self.annotation is not None and self.annotation.n != arr.size:
            raise ValueError("annotation length does not match series")

    @property
    def n(self) -> int:
        return int(self.values.size)


def validate_series(values: Sequence[float], name: str = "series",
                    annotation: Optional[ChangePointSet] = None) -> TimeSeries:
    """Build a TimeSeries, rejecting empty input and non-finite values."""
    return TimeSeries(np.asarray(values, dtype=np.float64), name, annotation)


@dataclass(frozen=True)
class RngStream:
    """Deterministic handle for one named random stream.

    Identical (master_seed, stream_id) pairs yield bit-identical draw
    sequences on every run and under any thread count. Distinct stream ids
    give statistically independent streams.
    """

    master_seed: int
    stream_id: int

    def __post_init__(self):
        for label, v in (("master_seed", self.master_seed),
                         ("stream_id", self.stream_id)):
            if not (0 <= int(v) <= _UINT64_MAX):
                raise ValueError(f"{label} must fit in 64 unsigned bits")
        object.__setattr__(self, "master_seed", int(self.master_seed))
        object.__setattr__(self, "stream_id", int(self.stream_id))

    def _seed_seq(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed,
                                      spawn_key=(self.stream_id,))

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.PCG64(self._seed_seq()))

    def child_seed(self) -> int:
        """A 64-bit seed derived from this stream, for nested derivation."""
        return int(self._seed_seq().generate_state(1, np.uint64)[0])


def substream(master_seed: int, stream_id: int) -> RngStream:
    """Deterministic, collision-free mapping (seed, id) -> stream."""
    return RngStream(master_seed, stream_id)


def mad_sigma(series: Union[TimeSeries, Sequence[float]]) -> float:
    """Scale estimate 1.4826 * median(|Y - median(Y)|).

    Raises DegenerateScale when the median absolute deviation is zero, which
    happens whenever more than half the values are identical.
    """
    values = series.values if isinstance(series, TimeSeries) else \
        np.asarray(series, dtype=np.float64)
    if values.size < 2:
        raise ValueError("scale estimation needs at least 2 values")
    med = float(np.median(values))
    mad = float(np.median(np.abs(values - med)))
    if mad == 0.0:
        raise DegenerateScale("median absolute deviation is zero")
    return MAD_TO_SIGMA * mad


@dataclass(frozen=True)
class DetectionConfig:
    """Parameters of one detection run.

    h is the window half-width: the scan compares two adjacent windows of 2h
    points each. epsilon is the assumed contamination bound. delta is the
    failure level of the mean estimator; None resolves to 1/n at detection
    time. sigma None means "estimate by MAD". maximizer_radius None resolves
    to 4h.
    """

    h: int
    epsilon: float
    lambda_policy: "LambdaPolicy"
    delta: Optional[float] = None
    sigma: Optional[float] = None
    maximizer_radius: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if int(self.h) < 2:
            raise ValueError("h must be an integer >= 2")
        object.__setattr__(self, "h", int(self.h))
        if not (0.0 <= self.epsilon < 0.5):
            raise ValueError("epsilon must lie in [0, 0.5)")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.maximizer_radius is not None and int(self.maximizer_radius) < 1:
            raise ValueError("maximizer_radius must be >= 1")
        if not (0 <= int(self.seed) <= _UINT64_MAX):
            raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class RunReport:
    """Diagnostics of a single detection run.

    scan_curve maps every scan index j in {2h, ..., n-2h} to the statistic
    value at j; every value is finite (a scan that is not raises
    NonFiniteScan). Every estimated location is one of these keys and its
    value strictly exceeds lambda_used.
    """

    scan_curve: dict
    estimated: ChangePointSet
    degenerate_windows: int
    lambda_used: float
    epsilon_effective: float
    seed_used: int
