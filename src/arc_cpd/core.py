"""Shared domain types, validation, and the deterministic randomness contract.

Everything downstream (estimators, detectors, simulators, benchmarks) builds on
the types in this module. All of them are immutable value objects, safe to
share across threads. Randomness is organized as named substreams: a
(master_seed, stream_id) pair maps to one reproducible generator, so any
computation that owns its stream ids produces bit-identical results no matter
how work is scheduled. The scan and the tournament draw one permutation from
each of many streams; `_permutations` reproduces those streams in one batch,
bit for bit, without building a generator per stream.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import operator
from dataclasses import dataclass
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
    "DetectionConfig",
    "RunReport",
    "RngStream",
    "substream",
    "mad_sigma",
    "MAD_TO_SIGMA",
]

# Gaussian consistency factor: 1 / Phi^{-1}(3/4).
MAD_TO_SIGMA = 1.4826

_UINT64_MAX = 2**64 - 1
_FLOAT_MAX = float(np.finfo(np.float64).max)


def _is_int(value) -> bool:
    # an integer is what operator.index accepts (__index__), but no bool
    return not isinstance(value, bool) and hasattr(type(value), "__index__")


def _is_real(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _check_int(label: str, value, low: Optional[int] = None,
               high: Optional[int] = None, error=ValueError) -> int:
    """value as an int in [low, high], a bound of None left open; error
    naming label otherwise. high = 2^64 - 1 (with low 0) reads as "fit in
    64 unsigned bits"."""
    if not _is_int(value):
        raise error(f"{label} must be an integer, not {value!r}")
    value = operator.index(value)
    if low is not None and value < low or high is not None and value > high:
        rule = ("must fit in 64 unsigned bits" if high == _UINT64_MAX else
                f"must be >= {low}" if high is None else
                f"must lie in [{low}, {high}]")
        raise error(f"{label} {rule}, not {value!r}")
    return value


def _check_real(label: str, value, low: float = 0.0, high: float = math.inf,
                closed_low: bool = False, error=ValueError) -> float:
    """value as a float in (low, high), or in [low, high) when closed_low;
    error naming label otherwise. The defaults ask for positive and
    finite."""
    try:
        x = float(value) if _is_real(value) else math.nan
    except OverflowError:  # an int past float max
        x = math.inf
    if (low <= x if closed_low else low < x) and x < high:
        return x
    rule = ("must be positive and finite" if (low, high, closed_low) ==
            (0.0, math.inf, False) else
            "must be a finite real" if high == -low == math.inf else
            f"must lie in {'[' if closed_low else '('}{low:g}, {high:g})")
    raise error(f"{label} {rule}, not {value!r}")


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
        n = _check_int("n", self.n, 1)
        locs = tuple(_check_int("locations", v, 1, n - 1)
                     for v in self.locations)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "locations", locs)
        for prev, cur in zip(locs, locs[1:]):
            if cur <= prev:
                raise ValueError("locations must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.locations)


@dataclass(frozen=True)
class TimeSeries:
    """A finite real-valued sequence, stored as a read-only float64 array."""

    values: np.ndarray

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

    @property
    def n(self) -> int:
        return int(self.values.size)


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
        for label in ("master_seed", "stream_id"):
            object.__setattr__(self, label, _check_int(
                label, getattr(self, label), 0, _UINT64_MAX))

    def _seed_seq(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed,
                                      spawn_key=(self.stream_id,))

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream.

        The scan and the tournament do not call this per window: they take
        each stream's first permutation from `_permutations`, which seeds
        them in one batch, writes each start state straight into one
        PCG64 (after a once-per-process check that the write lands) and
        shuffles with numpy's legacy (NEP 19-frozen) `RandomState.shuffle`:
        the same bits.
        """
        return np.random.Generator(np.random.PCG64(self._seed_seq()))

    def child_seed(self) -> int:
        """A 64-bit seed derived from this stream, for nested derivation."""
        return int(self._seed_seq().generate_state(1, np.uint64)[0])


def substream(master_seed: int, stream_id: int) -> RngStream:
    """Deterministic, collision-free mapping (seed, id) -> stream."""
    return RngStream(master_seed, stream_id)


# numpy's SeedSequence hash constants and PCG64's LCG multiplier; NEP 19
# keeps both seeding steps stable across numpy releases
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_M32 = 0xFFFFFFFF


def _hashmix(value, hash_const, mult: int = _MULT_A):
    """SeedSequence's hashmix on 32-bit words held in uint64 arrays. A
    column of hash constants hashes a value once per row."""
    value = value ^ hash_const
    value = (value * ((hash_const * mult) & _M32)) & _M32
    return value ^ (value >> 16)


def _chain(hash_const: int, count: int, mult: int) -> np.ndarray:
    """count successive hash constants from hash_const, as a uint64 column;
    they do not depend on the data."""
    chain = [hash_const]
    for _ in range(count - 1):
        chain.append((chain[-1] * mult) & _M32)
    return np.asarray(chain, dtype=np.uint64)[:, None]


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _M32
    return result ^ (result >> 16)


def _spawn_states(seed: int, ids) -> np.ndarray:
    """Row r is SeedSequence(seed, spawn_key=(ids[r],)).generate_state(4,
    np.uint64), vectorized over ids.

    A spawned SeedSequence first mixes the seed's words into its pool of 4
    exactly as SeedSequence(seed) does, with hash constants 0..15. That pool
    does not depend on the id, and the hash constants advance without
    looking at the data, so only the id words are mixed per row, with
    constants 16..19 and 20..23: each as one (4, m) array step, the second
    word only when some id has one, and the 8 output words as one (8, m)
    step.
    """
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    consts = _chain(_INIT_A, 24, _MULT_A)
    ids = np.asarray(ids, dtype=np.uint64)
    high = ids >> np.uint64(32)
    two_words = high != 0  # ids past 2^32 carry a second word
    # each id word is hashed into all 4 pool words as one (4, m) step
    pool = _mix(pool, _hashmix(ids & np.uint64(_M32), consts[16:20]))
    if two_words.any():
        pool = np.where(two_words, _mix(pool, _hashmix(high, consts[20:])),
                        pool)

    # output word i hashes pool word i % 4
    words = _hashmix(np.tile(pool, (2, 1)), _chain(_INIT_B, 8, _MULT_B),
                     _MULT_B)
    return (words[0::2] | (words[1::2] << np.uint64(32))).T


def _pcg_states(words: np.ndarray) -> np.ndarray:
    """PCG64's start states for rows of `_spawn_states` words (s0, s1, t0,
    t1), as uint64 limbs (state low, state high, inc low, inc high): the
    128-bit `state = (inc + s) * MULT + inc` with `inc = 2 t + 1`, for
    s = s0 * 2^64 + s1 and t = t0 * 2^64 + t1, all mod 2^128.

    Each step runs on whole columns. A 64-bit product's high word comes
    from four 32-bit partial products; the rest wraps mod 2^64.
    """
    s_hi, s_lo, t_hi, t_lo = words.T
    one, lo32 = np.uint64(1), np.uint64(_M32)
    k32, k63 = np.uint64(32), np.uint64(63)
    mult_lo = np.uint64(_PCG_MULT & _UINT64_MAX)
    mult_hi = np.uint64(_PCG_MULT >> 64)
    m0, m1 = mult_lo & lo32, mult_lo >> k32
    with np.errstate(over="ignore"):
        inc_lo = (t_lo << one) | one
        inc_hi = (t_hi << one) | (t_lo >> k63)
        sum_lo = inc_lo + s_lo
        sum_hi = inc_hi + s_hi + (sum_lo < inc_lo)
        # high word of sum_lo * mult_lo
        a0, a1 = sum_lo & lo32, sum_lo >> k32
        p00, p01, p10 = a0 * m0, a0 * m1, a1 * m0
        mid = (p00 >> k32) + (p01 & lo32) + (p10 & lo32)
        carry = a1 * m1 + (p01 >> k32) + (p10 >> k32) + (mid >> k32)
        prod_lo = sum_lo * mult_lo
        prod_hi = carry + sum_lo * mult_hi + sum_hi * mult_lo
        state_lo = prod_lo + inc_lo
        state_hi = prod_hi + inc_hi + (state_lo < inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


# None until the first split checks, once per process, that the views of
# `_state_views` reach PCG64's state; False sends every row through the
# `state` dict setter instead
_DIRECT_WRITE: Optional[bool] = None


def _state_views(bit_gen: np.random.PCG64):
    """Writable uint64 views of a PCG64's state words (state low, state
    high, inc low, inc high) and of its (has_uint32, uinteger) pair.

    They follow numpy's internal `pcg64_state`: a pointer to the 128-bit
    state and increment, then has_uint32 and uinteger. NEP 19 does not
    promise that layout, so `_direct_write` checks it before any use. The
    views hold no reference to bit_gen; they are valid while it lives.
    """
    address = bit_gen.ctypes.state_address
    words = ctypes.c_void_p.from_address(address).value
    return (np.frombuffer((ctypes.c_uint64 * 4).from_address(words),
                          dtype=np.uint64),
            np.frombuffer(ctypes.c_uint64.from_address(address + 8),
                          dtype=np.uint64))


def _direct_write() -> bool:
    """Whether a state written through `_state_views` is the state that
    the PCG64 reports; checked at the first call, then cached."""
    global _DIRECT_WRITE
    if _DIRECT_WRITE is None:
        bit_gen = np.random.PCG64(0)
        words, flags = _state_views(bit_gen)
        words[:] = [1, 2, 3, 5]
        flags[0] = (7 << 32) | 1
        _DIRECT_WRITE = bit_gen.state == {
            "bit_generator": "PCG64",
            "state": {"state": (2 << 64) | 1, "inc": (5 << 64) | 3},
            "has_uint32": 1, "uinteger": 7}
    return _DIRECT_WRITE


def _permutations(seed: int, ids, width: int) -> np.ndarray:
    """Row r is the first `permutation` of `width` positions drawn by
    substream(seed, ids[r]).generator(), bit for bit.

    The seeding runs in one batch: `_spawn_states`, then PCG64's start
    states as uint64 limbs (`_pcg_states`). Each row copies its four
    words straight into the state of one PCG64 made per call, through a
    numpy view of numpy's internal state struct, and clears the buffered
    32-bit draw; where a once-per-process check finds that the view does
    not reach the state, the same words go through the `state` dict
    setter. Each row is filled with `arange(width)` and shuffled in place
    by numpy's legacy `RandomState.shuffle`, which NEP 19 freezes: it
    draws the bounded integers of `Generator.permutation` from the same
    bits, and its typed 1-D path skips `Generator.shuffle`'s axis
    handling.
    """
    limbs = _pcg_states(_spawn_states(seed, ids))
    bit_gen = np.random.PCG64(0)
    shuffle = np.random.RandomState(bit_gen).shuffle
    out = np.empty((len(limbs), width), dtype=np.int64)
    out[:] = np.arange(width)
    if _direct_write():
        words, flags = _state_views(bit_gen)
        for row, perm in zip(limbs, out):
            words[:] = row
            flags[0] = 0
            shuffle(perm)
    else:
        for (s_lo, s_hi, i_lo, i_hi), perm in zip(limbs.tolist(), out):
            bit_gen.state = {
                "bit_generator": "PCG64",
                "state": {"state": (s_hi << 64) | s_lo,
                          "inc": (i_hi << 64) | i_lo},
                "has_uint32": 0, "uinteger": 0}
            shuffle(perm)
    return out


def _unit(lowest, highest, width: int):
    """1.0, or the power of two 0.5 ** (width - 1).bit_length() where a sum
    of `width` terms within [lowest, highest] could overflow; elementwise.

    In units no such sum and no difference of two terms overflows. Scaling
    by a power of two is exact for normal floats; subnormal values scaled
    by a unit below 1 lose low bits.
    """
    bound = _FLOAT_MAX / width
    return np.where((lowest < -bound) | (highest > bound),
                    0.5 ** (width - 1).bit_length(), 1.0)


def mad_sigma(series: Union[TimeSeries, Sequence[float]]) -> float:
    """Scale estimate 1.4826 * median(|Y - median(Y)|).

    Raises DegenerateScale when the median absolute deviation is zero, which
    happens whenever more than half the values are identical, or when the
    scale exceeds float max.
    """
    values = series.values if isinstance(series, TimeSeries) else \
        np.asarray(series, dtype=np.float64)
    if values.size < 2:
        raise ValueError("scale estimation needs at least 2 values")
    # in units no deviation and no sum of a middle pair overflows
    unit = float(_unit(values.min(), values.max(), 4))
    scaled = unit * values
    mad = float(np.median(np.abs(scaled - np.median(scaled)))) / unit
    if mad == 0.0:
        raise DegenerateScale("median absolute deviation is zero")
    scale = MAD_TO_SIGMA * mad
    if scale > _FLOAT_MAX:
        raise DegenerateScale("scale estimate exceeds float max")
    return scale


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
        from .detector import LambdaPolicy  # detector imports this module
        object.__setattr__(self, "h", _check_int("h", self.h, 2))
        _check_real("epsilon", self.epsilon, 0.0, 0.5, closed_low=True)
        if not isinstance(self.lambda_policy, LambdaPolicy):
            raise ValueError(f"lambda_policy must be a lambda policy, not "
                             f"{self.lambda_policy!r}")
        if self.delta is not None:
            _check_real("delta", self.delta, 0.0, 1.0)
        if self.sigma is not None:
            _check_real("sigma", self.sigma)
        if self.maximizer_radius is not None:
            object.__setattr__(self, "maximizer_radius", _check_int(
                "maximizer_radius", self.maximizer_radius, 1))
        object.__setattr__(self, "seed",
                           _check_int("seed", self.seed, 0, _UINT64_MAX))


@dataclass(frozen=True)
class RunReport:
    """Diagnostics of a single detection run.

    scan_curve maps every scan index j in {2h, ..., n-2h} to the statistic
    value at j; every value is finite (a scan that is not raises
    NonFiniteScan). Every estimated location is one of these keys and its
    value strictly exceeds lambda_used. It is None only in the per_run
    reports of an AggregateReport, which drop the curve.
    """

    scan_curve: Optional[dict]
    estimated: ChangePointSet
    degenerate_windows: int
    lambda_used: float
    epsilon_effective: float
    seed_used: int
