"""Contamination generators: labels, masks, atoms, and mean structure."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from arc_cpd.simgen import _design as _clean_profile, _drift
from arc_cpd import (
    AttackSpec,
    CauchyContam,
    CleanSteps,
    CorruptReal,
    CorruptionRule,
    Hiding,
    PRESET_NAMES,
    Sine,
    SpecInvalid,
    Spurious,
    atom_profile,
    build_preset,
    generate,
    mad_sigma,
    substream,
)


def expected_value_profile(spec):
    """E[Y_t] per position from the design, without sampling:
    (1 - eps) * clean mean + eps * contamination mean. Cauchy
    contamination and real-data corruption have no such profile."""
    v = spec.variant
    clean = _clean_profile(spec)[0]
    if isinstance(v, CleanSteps):
        return clean
    contam = _drift(v, spec.n) if isinstance(v, Sine) else atom_profile(spec)
    return (1.0 - v.epsilon) * clean + v.epsilon * contam


def empirical_mean_profile(ls, reps):
    """Pointwise average of reps regenerations of ls.spec; replicate r is
    seeded with substream(spec.seed, r).child_seed()."""
    total = np.zeros(ls.spec.n, dtype=np.float64)
    for r in range(1, reps + 1):
        seed_r = substream(ls.spec.seed, r).child_seed()
        total += generate(replace(ls.spec, seed=seed_r)).series.values
    return total / reps


def segment_means(values, cps):
    bounds = [0, *cps, len(values)]
    return [float(np.mean(values[a:b])) for a, b in zip(bounds, bounds[1:])]


class TestSpecValidation:
    def test_hiding_needs_positive_epsilon(self):
        with pytest.raises(SpecInvalid):
            AttackSpec(Hiding(epsilon=0.0, blocks=2), 1000, 0)

    def test_epsilon_range(self):
        with pytest.raises(SpecInvalid):
            AttackSpec(Spurious(epsilon=0.5), 1000, 0)

    def test_uneven_blocks_warn(self):
        with pytest.warns(UserWarning):
            AttackSpec(Spurious(epsilon=0.1, blocks=3), 5000, 0)

    def test_means_truth_mismatch(self):
        with pytest.raises(SpecInvalid):
            AttackSpec(CleanSteps(means=(0.0, 1.0), truth=(10, 20)), 100, 0)

    def test_corrupt_rule_bounds(self):
        base = tuple(float(i % 7) for i in range(50))
        with pytest.raises(SpecInvalid):
            AttackSpec(CorruptReal(base, (CorruptionRule((1, 60), 5, 1.0),)),
                       50, 0)
        with pytest.raises(SpecInvalid):
            AttackSpec(CorruptReal(base, (CorruptionRule((1, 10), 11, 1.0),)),
                       50, 0)

    def test_corrupt_base_length(self):
        with pytest.raises(SpecInvalid):
            AttackSpec(CorruptReal((1.0, 2.0), ()), 3, 0)

    @pytest.mark.parametrize("variant", [
        Sine, CauchyContam, lambda truth: CleanSteps(
            means=(0.0,) * (len(truth) + 1), truth=truth)],
        ids=["sine", "cauchy", "clean"])
    @pytest.mark.parametrize("truth", [(50, 40), (50, 100)],
                             ids=["out_of_order", "out_of_range"])
    def test_truth_that_does_not_fit_is_spec_invalid(self, variant, truth):
        with pytest.raises(SpecInvalid,
                           match=rf"truth \({truth[0]}, {truth[1]}\) does "
                                 "not fit n = 100"):
            AttackSpec(variant(truth=truth), 100, 0)

    def test_preset_truth_past_short_n_is_spec_invalid(self):
        with pytest.raises(SpecInvalid, match="does not fit n = 3"):
            build_preset("sine", n=3)


class TestTruthLabels:
    def test_spurious_flat_truth_stepped_observation(self):
        ls = generate(AttackSpec(Spurious(epsilon=0.1, blocks=2), 5000, 1))
        assert ls.truth_f.locations == ()
        assert ls.truth_ey.locations == (1250, 2500, 3750)

    def test_spurious_at_zero_epsilon_has_flat_observation_too(self):
        ls = generate(AttackSpec(Spurious(epsilon=0.0, blocks=2), 5000, 1))
        assert ls.truth_f.locations == ()
        assert ls.truth_ey.locations == ()

    def test_hiding_stepped_truth_flat_observation(self):
        ls = generate(AttackSpec(Hiding(epsilon=0.1, blocks=2), 5000, 1))
        assert ls.truth_f.locations == (1250, 2500, 3750)
        assert ls.truth_ey.locations == ()
        gaps = np.diff((0,) + ls.truth_f.locations + (5000,))
        assert gaps.min() == 1250

    def test_floored_boundaries_when_blocks_do_not_divide(self):
        with pytest.warns(UserWarning):
            spec = AttackSpec(Spurious(epsilon=0.1, blocks=3), 5000, 1)
        ls = generate(spec)
        assert ls.truth_ey.locations == (833, 1666, 2500, 3333, 4166)

    def test_count_scales_with_blocks(self):
        for blocks in (1, 2, 5):
            spec = AttackSpec(Hiding(epsilon=0.1, blocks=blocks), 5000, 1)
            assert generate(spec).truth_f.k == 2 * blocks - 1


class TestHidingArithmetic:
    def test_atom_values(self):
        spec = AttackSpec(Hiding(epsilon=0.2, blocks=2, kappa=1.2), 400, 0)
        atoms = atom_profile(spec)
        first = atoms[:100]
        second = atoms[100:200]
        assert np.allclose(first, 3.0)
        assert np.allclose(second, -1.8)

    def test_mean_identity_is_symbolic(self):
        # both mixture halves must collapse to kappa/2 without sampling
        for eps, kappa in ((0.2, 1.2), (0.05, 2.0), (0.4, 0.7)):
            spec = AttackSpec(Hiding(epsilon=eps, blocks=2, kappa=kappa), 400, 0)
            profile = expected_value_profile(spec)
            assert np.ptp(profile) <= 1e-12
            assert profile[0] == pytest.approx(kappa / 2.0, rel=1e-12)


class TestSpuriousStructure:
    def test_atoms_alternate_minus_then_plus(self):
        spec = AttackSpec(Spurious(epsilon=0.3, blocks=2), 2000, 3)
        ls = generate(spec)
        mask = ls.contaminated_mask
        values = ls.series.values
        bounds = (0, 500, 1000, 1500, 2000)
        signs = (-3.0, 3.0, -3.0, 3.0)
        for (a, b), atom in zip(zip(bounds, bounds[1:]), signs):
            hit = mask[a:b]
            assert hit.any()
            assert np.all(values[a:b][hit] == atom)

    def test_expected_profile_steps_by_six_epsilon(self):
        spec = AttackSpec(Spurious(epsilon=0.1, blocks=1), 1000, 0)
        profile = expected_value_profile(spec)
        assert np.allclose(profile[:500], -0.3)
        assert np.allclose(profile[500:], 0.3)


class TestMaskStatistics:
    def test_binomial_consistency(self):
        # realized fraction within 4 binomial sigmas of eps, over many seeds
        eps, n = 0.1, 2000
        bound = 4.0 * math.sqrt(eps * (1 - eps) / n)
        ok = 0
        for seed in range(500):
            ls = generate(AttackSpec(Spurious(epsilon=eps), n, seed))
            ok += abs(ls.contaminated_mask.mean() - eps) <= bound
        assert ok >= 499

    def test_zero_epsilon_mask_is_empty(self):
        ls = generate(AttackSpec(Spurious(epsilon=0.0), 500, 2))
        assert not ls.contaminated_mask.any()

    def test_mask_is_read_only(self):
        ls = generate(AttackSpec(Spurious(epsilon=0.1), 500, 2))
        with pytest.raises(ValueError):
            ls.contaminated_mask[0] = True


class TestReproducibility:
    def test_bit_identical_regeneration(self):
        spec = AttackSpec(Hiding(epsilon=0.1, blocks=2), 3000, 123)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.series.values, b.series.values)
        assert np.array_equal(a.contaminated_mask, b.contaminated_mask)

    def test_seed_changes_draws(self):
        v = Hiding(epsilon=0.1, blocks=2)
        a = generate(AttackSpec(v, 3000, 1))
        b = generate(AttackSpec(v, 3000, 2))
        assert not np.array_equal(a.series.values, b.series.values)


class TestEmpiricalMeanProfile:
    def test_hiding_profile_is_flat_at_half_kappa(self):
        ls = generate(AttackSpec(Hiding(epsilon=0.1, blocks=2, kappa=1.0),
                                 400, 9))
        profile = empirical_mean_profile(ls, 2000)
        # segment averages of the profile kill the per-point noise floor
        for m in segment_means(profile, (100, 200, 300)):
            assert abs(m - 0.5) <= 0.05

    def test_spurious_profile_alternates(self):
        ls = generate(AttackSpec(Spurious(epsilon=0.1, blocks=2), 400, 9))
        profile = empirical_mean_profile(ls, 2000)
        want = (-0.3, 0.3, -0.3, 0.3)
        for m, w in zip(segment_means(profile, (100, 200, 300)), want):
            assert abs(m - w) <= 0.05

    def test_clean_steps_profile(self):
        spec = AttackSpec(CleanSteps(means=(0.0, 5.0), truth=(200,)), 400, 9)
        profile = empirical_mean_profile(generate(spec), 2000)
        for m, w in zip(segment_means(profile, (200,)), (0.0, 5.0)):
            assert abs(m - w) <= 0.05


class TestSineAndCauchy:
    def test_sine_expected_profile_formula(self):
        spec = build_preset("sine", n=3000, seed=4)
        profile = expected_value_profile(spec)
        v = spec.variant
        for t in (1, 700, 1500, 2999):
            clean = 0.0 if t <= 750 or (1500 < t <= 2250) else 1.2
            drift = 2.0 * math.sin(10.0 * math.pi * t / 3000.0)
            want = 0.8 * clean + 0.2 * drift
            assert profile[t - 1] == pytest.approx(want, rel=1e-12)
        assert v.truth == (750, 1500, 2250)

    def test_cauchy_series_is_finite_and_labeled(self):
        ls = generate(build_preset("cauchy", n=3000, seed=4))
        assert np.isfinite(ls.series.values).all()
        assert ls.truth_f.locations == (750, 1500, 2250)
        assert ls.truth_ey == ls.truth_f
        assert abs(ls.contaminated_mask.mean() - 0.2) <= 0.05

    def test_contamination_dominates_spread(self):
        # scale-10 heavy tails should blow up the sample spread well past
        # the clean sigma = 1 segments
        ls = generate(build_preset("cauchy", n=3000, seed=4))
        contaminated = ls.series.values[ls.contaminated_mask]
        assert np.abs(contaminated).max() > 20.0


class TestCorruptReal:
    def build(self, n=1500, seed=11):
        g = substream(99, 0).generator()
        base = tuple(float(x) for x in g.normal(0, 2, n))
        return base, build_preset("corrupt-beijing", base=base, seed=seed)

    def test_rule_counts_and_values(self):
        base, spec = self.build()
        ls = generate(spec)
        scale = mad_sigma(np.asarray(base))
        mask = ls.contaminated_mask
        head = mask[:1000]
        tail = mask[1000:]
        assert head.sum() == 100
        assert tail.sum() == 50
        assert np.allclose(ls.series.values[:1000][head], 3.0 * scale)
        assert np.allclose(ls.series.values[1000:][tail], 0.5 * scale)

    def test_untouched_positions_keep_base(self):
        base, spec = self.build()
        ls = generate(spec)
        keep = ~ls.contaminated_mask
        assert np.array_equal(ls.series.values[keep],
                              np.asarray(base)[keep])

    def test_truths_empty(self):
        _, spec = self.build()
        ls = generate(spec)
        assert ls.truth_f.k == 0
        assert ls.truth_ey.k == 0

    def test_needs_base(self):
        with pytest.raises(SpecInvalid):
            build_preset("corrupt-beijing")


class TestPresets:
    def test_unknown_name(self):
        with pytest.raises(SpecInvalid):
            build_preset("bogus")

    def test_spurious_defaults(self):
        spec = build_preset("spurious")
        assert spec.n == 5000
        assert spec.variant == Spurious(epsilon=0.1, blocks=1, sigma=1.0)

    def test_hiding_defaults(self):
        spec = build_preset("hiding")
        assert spec.variant == Hiding(epsilon=0.1, blocks=2, kappa=1.0)

    def test_clean_preset_ladder(self):
        spec = build_preset("clean", n=2000)
        assert spec.variant.truth == (500, 1000, 1500)
        assert spec.variant.means == (0.0, 5.0, 0.0, 5.0)

    def test_base_rejected_elsewhere(self):
        with pytest.raises(SpecInvalid):
            build_preset("hiding", base=(1.0, 2.0))


# SHA-256 of the value bytes then the mask bytes, truth_f and truth_ey of
# each preset at n = 1200 and seed 7; corrupt-beijing corrupts a fixed base
_QUARTERS = (300, 600, 900)
_PRESET_GOLDEN = {
    "spurious": ("c9a737937bdf708f736fd9a6d5fda42d"
                 "9192558346d236a48d25440c03bd8f1f", (), (600,)),
    "hiding": ("882bdfc6b8683f79f4c9dccf90c1841f"
               "252f21ba948b1a9d3dea229675f55d2a", _QUARTERS, ()),
    "sine": ("af0dab63b78de7dbba60aeb80a12a29d"
             "ed4598e80f167f1e9a2ad95065f87515", _QUARTERS, _QUARTERS),
    "cauchy": ("a4c169357389f24247914ecc6d15fcb3"
               "2805cdc2bbe51685e567027b6eae4b4b", _QUARTERS, _QUARTERS),
    "clean": ("c81c650ca7968a37707efc99fa1508d1"
              "cff474666985504e378bb0411d4fbd25", _QUARTERS, _QUARTERS),
    "corrupt-beijing": ("b31f13e7f69acd7d0616d23f0cc00582"
                        "fdf22b047e7044a7e8656f88dca1efe9", (), ()),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_golden(name):
    if name == "corrupt-beijing":
        g = substream(99, 0).generator()
        spec = build_preset(name, seed=7,
                            base=tuple(float(x) for x in g.normal(0, 2, 1200)))
    else:
        spec = build_preset(name, n=1200, seed=7)
    ls = generate(spec)
    digest = hashlib.sha256(ls.series.values.tobytes() +
                            ls.contaminated_mask.tobytes()).hexdigest()
    assert (digest, ls.truth_f.locations, ls.truth_ey.locations) == \
        _PRESET_GOLDEN[name]


class TestRejections:
    @pytest.mark.parametrize("call, error, match", [
        pytest.param(lambda: AttackSpec(Spurious(epsilon=0.1), 1, 0),
                     SpecInvalid, "n must be >= 2", id="n_one"),
        pytest.param(lambda: AttackSpec(Spurious(epsilon=0.1), 100, -1),
                     SpecInvalid, "seed must fit in 64 unsigned bits",
                     id="negative_seed"),
        # fractional integer fields were truncated to n = 20, seed = 1
        pytest.param(lambda: AttackSpec(Hiding(epsilon=0.1), 20.9, 1.5),
                     SpecInvalid, "n must be an integer, not 20.9",
                     id="n_fraction"),
        pytest.param(lambda: AttackSpec(Hiding(epsilon=0.1), 20, 1.5),
                     SpecInvalid, "seed must be an integer, not 1.5",
                     id="seed_fraction"),
        pytest.param(lambda: AttackSpec(Spurious(epsilon=0.1, blocks=1.5),
                                        100, 0),
                     SpecInvalid, "blocks must be an integer, not 1.5",
                     id="blocks_fraction"),
        pytest.param(lambda: AttackSpec(Spurious(epsilon=0.1, blocks=0),
                                        100, 0),
                     SpecInvalid, "blocks must be >= 1", id="zero_blocks"),
        pytest.param(lambda: AttackSpec(Spurious(epsilon=0.1, blocks=3),
                                        5, 0),
                     SpecInvalid, "each half span needs at least one point",
                     id="n_below_twice_blocks"),
        pytest.param(lambda: AttackSpec(Spurious(epsilon=0.1, sigma=0.0),
                                        100, 0),
                     SpecInvalid, "sigma must be positive",
                     id="spurious_sigma"),
        pytest.param(lambda: AttackSpec(Sine(sigma=-1.0), 100, 0),
                     SpecInvalid, "sigma must be positive", id="sine_sigma"),
        pytest.param(lambda: AttackSpec(Sine(frequency=0.0), 100, 0),
                     SpecInvalid, "frequency must be positive",
                     id="sine_frequency"),
        pytest.param(lambda: AttackSpec(CauchyContam(scale=0.0), 100, 0),
                     SpecInvalid, "scale must be positive",
                     id="cauchy_scale"),
        pytest.param(lambda: AttackSpec(CleanSteps(means=(0.0,), sigma=0.0),
                                        100, 0),
                     SpecInvalid, "sigma must be positive",
                     id="clean_sigma"),
        # kappa, amplitude and the means failed only inside generate or
        # TimeSeries, or were taken as they came (a bool kappa)
        pytest.param(lambda: AttackSpec(Hiding(epsilon=0.1, kappa="1"),
                                        100, 0),
                     SpecInvalid, "kappa must be a finite real, not '1'",
                     id="hiding_kappa_string"),
        pytest.param(lambda: AttackSpec(Hiding(epsilon=0.1, kappa=True),
                                        100, 0),
                     SpecInvalid, "kappa must be a finite real, not True",
                     id="hiding_kappa_bool"),
        pytest.param(lambda: AttackSpec(
            CleanSteps(means=("a", 1.0), truth=(50,)), 100, 0),
            SpecInvalid, "means must be a finite real, not 'a'",
            id="clean_means_string"),
        pytest.param(lambda: AttackSpec(Sine(amplitude=math.nan), 100, 0),
                     SpecInvalid, "amplitude must be a finite real, not nan",
                     id="sine_amplitude_nan"),
        pytest.param(lambda: AttackSpec(Sine(kappa=math.inf), 100, 0),
                     SpecInvalid, "kappa must be a finite real, not inf",
                     id="sine_kappa_inf"),
        pytest.param(lambda: AttackSpec(
            CleanSteps(means=(math.inf, 1.0), truth=(50,)), 100, 0),
            SpecInvalid, "means must be a finite real, not inf",
            id="clean_means_inf"),
    ])
    def test_documented_rejection(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
