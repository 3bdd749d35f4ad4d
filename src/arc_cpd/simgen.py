"""Simulated series with controlled contamination, plus real-data corruption.

Every generator draws a contamination mask i.i.d. Bernoulli(eps) per index,
fills clean values from piecewise Gaussian segments, and overwrites masked
positions with the variant's contamination values. The draw order inside one
generation is fixed (mask, clean, contamination) so that results are
bit-reproducible from (spec, seed).

Block variants split the series into `blocks` equal spans of float width
M = n / blocks; span j covers positions (floor((j-1) M), floor(j M)] and its
halves meet at floor((j - 1/2) M). Exact division is expected; other lengths
work but emit a warning.

Ground truth is recorded twice: change points of the clean segment means
(truth_f) and change points of the observation expectation (truth_ey). The
two differ exactly in the adversarial variants, which is their point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    _UINT64_MAX,
    ChangePointSet,
    SpecInvalid,
    TimeSeries,
    _check_int,
    _check_real,
    mad_sigma,
    substream,
)

__all__ = [
    "Spurious",
    "Hiding",
    "Sine",
    "CauchyContam",
    "CleanSteps",
    "CorruptionRule",
    "CorruptReal",
    "AttackVariant",
    "AttackSpec",
    "LabeledSeries",
    "generate",
    "atom_profile",
    "PRESET_NAMES",
    "build_preset",
]


@dataclass(frozen=True)
class Spurious:
    """No clean changes; contamination atoms alternate -3 / +3 per half span.

    The clean law is N(0, sigma^2) everywhere, so the true segmentation is
    empty, yet the observation mean steps by 6 * epsilon at every half-span
    boundary.
    """

    epsilon: float
    blocks: int = 1
    sigma: float = 1.0


@dataclass(frozen=True)
class Hiding:
    """Clean mean alternates 0 / kappa; atoms cancel every step in expectation.

    First half of each span: clean N(0, 1) with atom at kappa / (2 eps).
    Second half: clean N(kappa, 1) with atom at kappa (1 - 1 / (2 eps)).
    Both mixtures have expectation kappa / 2, so the observation mean is
    constant even though the clean segmentation has 2 * blocks - 1 changes.
    """

    epsilon: float
    blocks: int = 2
    kappa: float = 1.0


@dataclass(frozen=True)
class Sine:
    """Step means contaminated by Gaussians whose mean drifts sinusoidally.

    Contamination at position t (1-based) is N(amplitude * sin(frequency *
    pi * t / n), sigma^2). Clean means form the alternating 0 / kappa ladder
    over the segments delimited by `truth`.
    """

    epsilon: float = 0.2
    amplitude: float = 2.0
    frequency: float = 10.0
    kappa: float = 1.2
    sigma: float = 1.0
    truth: Tuple[int, ...] = ()


@dataclass(frozen=True)
class CauchyContam:
    """Step means contaminated by heavy-tailed Cauchy(0, scale) draws."""

    epsilon: float = 0.2
    scale: float = 10.0
    kappa: float = 1.2
    sigma: float = 1.0
    truth: Tuple[int, ...] = ()


@dataclass(frozen=True)
class CleanSteps:
    """Uncontaminated piecewise Gaussian with explicit segment means."""

    means: Tuple[float, ...]
    sigma: float = 1.0
    truth: Tuple[int, ...] = ()


@dataclass(frozen=True)
class CorruptionRule:
    """Replace `count` uniform positions inside `region` by value_in_scales
    times the robust scale of the base series.

    region is 1-based inclusive (start, stop); stop None means series end.
    """

    region: Tuple[int, Optional[int]]
    count: int
    value_in_scales: float


@dataclass(frozen=True, eq=False)
class CorruptReal:
    """Deterministic corruption of a real series under positional rules."""

    base: Tuple[float, ...]
    rules: Tuple[CorruptionRule, ...]


AttackVariant = Union[Spurious, Hiding, Sine, CauchyContam, CleanSteps,
                      CorruptReal]

_BLOCK_VARIANTS = (Spurious, Hiding)


@dataclass(frozen=True, eq=False)
class AttackSpec:
    """A fully specified generation task: variant parameters, length, seed."""

    variant: AttackVariant
    n: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n",
                           _check_int("n", self.n, 2, error=SpecInvalid))
        object.__setattr__(self, "seed", _check_int(
            "seed", self.seed, 0, _UINT64_MAX, SpecInvalid))
        v = self.variant
        # variants share these field names; each is checked where present
        if hasattr(v, "epsilon"):
            _check_real("epsilon", v.epsilon, 0.0, 0.5, closed_low=True,
                        error=SpecInvalid)
        for field, low in (("sigma", 0.0), ("frequency", 0.0), ("scale", 0.0),
                           ("kappa", -math.inf), ("amplitude", -math.inf)):
            if hasattr(v, field):
                _check_real(field, getattr(v, field), low, error=SpecInvalid)
        for mean in getattr(v, "means", ()):
            _check_real("means", mean, -math.inf, error=SpecInvalid)
        if isinstance(v, _BLOCK_VARIANTS):
            _check_int("blocks", v.blocks, 1, error=SpecInvalid)
            if self.n < 2 * v.blocks:
                raise SpecInvalid("each half span needs at least one point")
            if self.n % v.blocks != 0:
                warnings.warn(
                    f"blocks = {v.blocks} does not divide n = {self.n}; "
                    "span boundaries are floored", stacklevel=3)
            if isinstance(v, Hiding) and v.epsilon <= 0.0:
                raise SpecInvalid(
                    "hiding variant needs epsilon > 0: its atom value "
                    "kappa / (2 epsilon) is undefined at 0")
        elif isinstance(v, (Sine, CauchyContam, CleanSteps)):
            self._check_truth(v.truth)
            if isinstance(v, CleanSteps) and len(v.means) != len(v.truth) + 1:
                raise SpecInvalid(
                    f"{len(v.truth)} change points need "
                    f"{len(v.truth) + 1} segment means, got {len(v.means)}")
        elif isinstance(v, CorruptReal):
            if len(v.base) != self.n:
                raise SpecInvalid(
                    f"base series length {len(v.base)} != n = {self.n}")
            for rule in v.rules:
                lo, hi = rule.region
                lo = _check_int("rule region start", lo, 1, self.n,
                                SpecInvalid)
                hi = self.n if hi is None else _check_int(
                    "rule region stop", hi, lo, self.n, SpecInvalid)
                _check_int("rule count", rule.count, 0, hi - lo + 1,
                           SpecInvalid)
        else:
            raise SpecInvalid(f"unknown variant {type(v).__name__}")

    def _check_truth(self, truth: Sequence[int]) -> None:
        # ChangePointSet enforces ordering and range; build it to validate
        try:
            ChangePointSet(tuple(truth), self.n)
        except ValueError as err:
            raise SpecInvalid(f"truth {tuple(truth)} does not fit "
                              f"n = {self.n}: {err}") from None


@dataclass(frozen=True, eq=False)
class LabeledSeries:
    """Generated data plus both ground truths and the realized mask."""

    series: TimeSeries
    truth_f: ChangePointSet
    truth_ey: ChangePointSet
    contaminated_mask: np.ndarray
    spec: AttackSpec

    def __post_init__(self):
        mask = np.asarray(self.contaminated_mask, dtype=bool)
        if mask.shape != (self.series.n,):
            raise SpecInvalid("mask length must equal series length")
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "contaminated_mask", mask)


def _segment_means(n: int, cps: Sequence[int],
                   means: Sequence[float]) -> np.ndarray:
    bounds = [0, *cps, n]
    lengths = np.diff(bounds)
    return np.repeat(np.asarray(means, dtype=np.float64), lengths)


def _ladder(k: int, kappa: float) -> Tuple[float, ...]:
    return tuple(0.0 if i % 2 == 0 else kappa for i in range(k + 1))


def _alternating_truth(n: int, blocks: int) -> Tuple[int, ...]:
    """Every half-span and span boundary but the last, as 1-based ends."""
    m = n / blocks
    j = np.arange(1, blocks + 1)
    half = np.floor((j - 0.5) * m).astype(np.int64)
    full = np.floor(j[:-1] * m).astype(np.int64)
    return tuple(int(b) for b in np.sort(np.concatenate((half, full))))


def _drift(v: Sine, n: int) -> np.ndarray:
    """Sine contamination mean at positions 1..n."""
    t = np.arange(1, n + 1, dtype=np.float64)
    return v.amplitude * np.sin(v.frequency * math.pi * t / n)


class _Design(NamedTuple):
    """How one family builds its series. The contamination is drawn from the
    generator after the clean noise; the atom families draw nothing."""

    mean: np.ndarray
    sigma: float
    contamination: Callable[[np.random.Generator], np.ndarray]
    truth_f: Tuple[int, ...]
    truth_ey: Tuple[int, ...]


def _design(spec: AttackSpec) -> _Design:
    """The design of every family but CorruptReal."""
    v, n = spec.variant, spec.n
    if isinstance(v, _BLOCK_VARIANTS):
        steps = _alternating_truth(n, v.blocks)
        first = np.repeat(np.arange(len(steps) + 1) % 2 == 0,
                          np.diff((0, *steps, n)))  # first half of a span
        if isinstance(v, Spurious):
            atoms = np.where(first, -3.0, 3.0)
            # at level zero the atoms never fire: the observation is flat
            return _Design(np.zeros(n), v.sigma, lambda g: atoms, (),
                           steps if v.epsilon > 0 else ())
        atoms = np.where(first, v.kappa / (2.0 * v.epsilon),
                         v.kappa * (1.0 - 1.0 / (2.0 * v.epsilon)))
        return _Design(np.where(first, 0.0, v.kappa), 1.0, lambda g: atoms,
                       steps, ())
    if isinstance(v, CleanSteps):
        mean = _segment_means(n, v.truth, v.means)
        draw = lambda g: mean  # its mask is empty
    else:
        mean = _segment_means(n, v.truth, _ladder(len(v.truth), v.kappa))
        draw = ((lambda g: _drift(v, n) + v.sigma * g.standard_normal(n))
                if isinstance(v, Sine) else
                (lambda g: v.scale * g.standard_cauchy(n)))
    # the observation mean of Sine and Cauchy either drifts continuously or
    # does not exist; only the clean steps are representable as change points
    return _Design(mean, v.sigma, draw, v.truth, v.truth)


def atom_profile(spec: AttackSpec) -> np.ndarray:
    """Deterministic contamination value per position (atom variants only)."""
    if not isinstance(spec.variant, _BLOCK_VARIANTS):
        raise SpecInvalid(f"{type(spec.variant).__name__} contamination is "
                          "not a deterministic atom")
    return _design(spec).contamination(None)


def generate(spec: AttackSpec) -> LabeledSeries:
    """Materialize one series from a spec; bit-reproducible from (spec, seed)."""
    v, n = spec.variant, spec.n
    g = substream(spec.seed, 0).generator()

    if isinstance(v, CorruptReal):
        values = np.asarray(v.base, dtype=np.float64).copy()
        scale = mad_sigma(values)
        mask = np.zeros(n, dtype=bool)
        for rule in v.rules:
            lo, hi = rule.region
            hi = n if hi is None else hi
            idx = g.choice(np.arange(lo - 1, hi), size=rule.count,
                           replace=False)
            values[idx] = rule.value_in_scales * scale
            mask[idx] = True
        none = ChangePointSet((), n)
        return LabeledSeries(TimeSeries(values), none, none, mask, spec)

    d = _design(spec)
    eps = getattr(v, "epsilon", 0.0)
    mask = (g.random(n) < eps) if eps > 0 else np.zeros(n, dtype=bool)
    values = d.mean + d.sigma * g.standard_normal(n)
    values = np.where(mask, d.contamination(g), values)
    return LabeledSeries(TimeSeries(values), ChangePointSet(d.truth_f, n),
                         ChangePointSet(d.truth_ey, n), mask, spec)


_PRESET_FAMILIES = {"spurious": Spurious, "hiding": Hiding, "sine": Sine,
                    "cauchy": CauchyContam, "clean": CleanSteps}
PRESET_NAMES = (*_PRESET_FAMILIES, "corrupt-beijing")


def _quarter_truth(n: int) -> Tuple[int, int, int]:
    return (n // 4, n // 2, 3 * n // 4)


def build_preset(name: str, *, n: Optional[int] = None,
                 epsilon: Optional[float] = None,
                 delta_blocks: Optional[int] = None,
                 kappa: Optional[float] = None,
                 sigma: Optional[float] = None,
                 seed: int = 0,
                 base: Optional[Sequence[float]] = None) -> AttackSpec:
    """Named generator configurations: n = 5000 for the block presets and
    3000 for the step presets, whose changes sit at the quarters of n.

    A parameter left None takes the variant's default, except the block
    presets' epsilon (0.1) and clean's kappa (5, the step of its 0 / kappa
    means); one the variant lacks is ignored. `base` is required by (and
    only by) corrupt-beijing.
    """
    if name not in PRESET_NAMES:
        raise SpecInvalid(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    if name == "corrupt-beijing":
        if base is None:
            raise SpecInvalid("corrupt-beijing needs a base series")
        nn = len(base)
        rules = (CorruptionRule((1, min(1000, nn)), 100, 3.0),
                 CorruptionRule((min(1000, nn) + 1, None), 50, 0.5))
        return AttackSpec(CorruptReal(tuple(float(x) for x in base), rules),
                          nn, seed)
    if base is not None:
        raise SpecInvalid(f"preset {name!r} does not take a base series")

    family = _PRESET_FAMILIES[name]
    given = dict(epsilon=epsilon, blocks=delta_blocks, kappa=kappa,
                 sigma=sigma)
    if family in _BLOCK_VARIANTS:
        nn = 5000 if n is None else n
        given["epsilon"] = 0.1 if epsilon is None else epsilon
    else:
        nn = 3000 if n is None else n
        truth = given["truth"] = _quarter_truth(nn)
        if family is CleanSteps:
            given["means"] = _ladder(len(truth),
                                     5.0 if kappa is None else kappa)
    accepted = {f.name for f in fields(family)}
    return AttackSpec(family(**{k: x for k, x in given.items()
                                if x is not None and k in accepted}), nn, seed)
