"""Domain types, validation, and the substream randomness contract."""

import math
import pickle
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arc_cpd import (
    ArcCpdError,
    ChangePointSet,
    DegenerateScale,
    DetectionConfig,
    EmptySeries,
    InfeasibleWindow,
    LambdaResolutionFailure,
    ManualLambda,
    NoFeasibleCandidate,
    NonFiniteScan,
    NonFiniteValue,
    SeriesTooShort,
    SpecInvalid,
    TimeSeries,
    detect,
    mad_sigma,
    substream,
)
import arc_cpd.core as core
from arc_cpd.core import _pcg_states, _permutations, _spawn_states


class TestValidateSeries:
    def test_well_formed(self):
        ts = TimeSeries([1.0, 2.0, 3.0])
        assert ts.n == 3
        assert ts.values.dtype == np.float64

    def test_empty_rejected(self):
        with pytest.raises(EmptySeries):
            TimeSeries([])

    def test_nan_position_is_one_based(self):
        with pytest.raises(NonFiniteValue) as exc:
            TimeSeries([1.0, float("nan")])
        assert exc.value.index == 2

    def test_inf_rejected(self):
        with pytest.raises(NonFiniteValue) as exc:
            TimeSeries([math.inf, 0.0])
        assert exc.value.index == 1

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((3, 3)))

    def test_values_are_isolated_and_frozen(self):
        src = np.array([1.0, 2.0, 3.0])
        ts = TimeSeries(src)
        src[0] = 99.0
        assert ts.values[0] == 1.0
        with pytest.raises(ValueError):
            ts.values[0] = 5.0


class TestChangePointSet:
    def test_empty_set_permitted(self):
        cps = ChangePointSet((), 100)
        assert cps.k == 0

    def test_bounds(self):
        ChangePointSet((1, 99), 100)
        with pytest.raises(ValueError):
            ChangePointSet((0,), 100)
        with pytest.raises(ValueError):
            ChangePointSet((100,), 100)

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            ChangePointSet((5, 5), 100)
        with pytest.raises(ValueError):
            ChangePointSet((7, 3), 100)


class TestSubstream:
    def test_identical_pairs_give_identical_draws(self):
        a = substream(42, 0).generator().random(100)
        b = substream(42, 0).generator().random(100)
        assert np.array_equal(a, b)

    def test_distinct_ids_differ(self):
        a = substream(42, 0).generator().random()
        b = substream(42, 1).generator().random()
        assert a != b

    def test_no_child_seed_collisions_across_ten_thousand_ids(self):
        seeds = {substream(42, i).child_seed() for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_no_first_draw_collisions_across_masters(self):
        draws = {substream(m, 0).generator().random() for m in range(1000)}
        assert len(draws) == 1000

    def test_same_stream_regardless_of_thread(self):
        def draw(_):
            return substream(42, 7).generator().random(50).tobytes()

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(draw, range(16)))
        assert len(set(results)) == 1

    def test_child_seed_is_stable(self):
        assert substream(7, 3).child_seed() == substream(7, 3).child_seed()

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError):
            substream(-1, 0)
        with pytest.raises(ValueError):
            substream(0, 2**64)


# ids at the edges of one and two 32-bit words
_EDGE_IDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
# raw 64-bit words that reach every carry of the PCG64 seeding: t's top bit
# into inc's high word, the 128-bit add, and each 32-bit partial product
_CARRY_WORDS = [0, 1, 2**32 - 1, 2**63, 2**64 - 1]


class TestBatchedStreams:
    @given(seed=st.integers(0, 2**64 - 1),
           ids=st.lists(st.one_of(st.sampled_from(_EDGE_IDS),
                                  st.integers(0, 2**32 - 1),
                                  st.integers(2**32, 2**64 - 1)),
                        min_size=1, max_size=6),
           width=st.integers(4, 400))
    @example(seed=0, ids=_EDGE_IDS, width=4)
    @example(seed=2**64 - 1, ids=_EDGE_IDS, width=400)
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_numpy_streams(self, seed, ids, width):
        states = _spawn_states(seed, ids)
        perms = _permutations(seed, ids, width)
        assert perms.shape == (len(ids), width)
        for r, stream_id in enumerate(ids):
            seq = np.random.SeedSequence(seed, spawn_key=(stream_id,))
            assert np.array_equal(states[r],
                                  seq.generate_state(4, np.uint64))
            want = substream(seed, stream_id).generator().permutation(width)
            assert np.array_equal(perms[r], want)
            # the legacy stream, which NEP 19 freezes, on the same PCG64
            frozen = np.random.RandomState(np.random.PCG64(seq))
            assert np.array_equal(perms[r], frozen.permutation(width))

    def test_golden_rows(self):
        # literal bits of each seeding step and of the split at seed 0 and
        # the extreme ids; a numpy release that moves one fails its line
        ids = [0, 2**64 - 1]
        spawned = [[0x784DFB2CDFF7B411, 0xCA65717F56CF8F57,
                    0x66BA395B9BB52223, 0x6F9B32110FE1E0A9],
                   [0x5012DB0211239C5D, 0xDE27AA6A2D4FA613,
                    0x4F1622F68EEA52E4, 0x0091C47CDBF0F13C]]
        pcg = [(0x9DC7E5C5548209EFE5F1B57E8273DB25,
                0xCD7472B7376A4446DF3664221FC3C153),
               (0x110FE21A87D0FA3BB4C6131BDB023835,
                0x9E2C45ED1DD4A5C8012388F9B7E1E279)]
        for r, stream_id in enumerate(ids):
            seq = np.random.SeedSequence(0, spawn_key=(stream_id,))
            assert seq.generate_state(4, np.uint64).tolist() == spawned[r], \
                "SeedSequence spawn hashing moved"
            state = np.random.PCG64(seq).state["state"]
            assert (state["state"], state["inc"]) == pcg[r], \
                "PCG64 seeding from SeedSequence moved"
        assert _spawn_states(0, ids).tolist() == spawned
        assert _permutations(0, ids, 8).tolist() == [
            [5, 3, 0, 1, 2, 4, 7, 6], [3, 0, 2, 5, 4, 7, 1, 6]], \
            "the shuffle's bounded draws moved"

    def test_concurrent_detects_reproduce_serial_reports(self):
        g = np.random.default_rng(3)
        series = TimeSeries(np.r_[g.normal(0, 1, 1500), g.normal(2, 1, 1500)])
        configs = [DetectionConfig(h=60, epsilon=0.05, sigma=1.0, seed=s,
                                   lambda_policy=ManualLambda(0.8))
                   for s in (1, 2**64 - 1)]
        serial = [pickle.dumps(detect(series, c)) for c in configs]
        barrier = threading.Barrier(2)

        def run(config):
            barrier.wait(timeout=60)
            return pickle.dumps(detect(series, config))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run, c) for c in configs]
                concurrent = [f.result(timeout=300) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial
        assert serial[0] != serial[1]

    @given(rows=st.lists(
        st.tuples(*[st.one_of(st.sampled_from(_CARRY_WORDS),
                              st.integers(0, 2**64 - 1))] * 4),
        min_size=1, max_size=8))
    @example(rows=[(a, b, c, d) for a in _CARRY_WORDS for b in _CARRY_WORDS
                   for c in _CARRY_WORDS for d in _CARRY_WORDS])
    @settings(max_examples=300, deadline=None)
    def test_pcg_limbs_equal_int_formula(self, rows):
        limbs = _pcg_states(np.array(rows, dtype=np.uint64))
        mask = 2**128 - 1
        for (s0, s1, t0, t1), (s_lo, s_hi, i_lo, i_hi) in zip(
                rows, limbs.tolist()):
            inc = (2 * ((t0 << 64) | t1) + 1) & mask
            want = (((inc + ((s0 << 64) | s1)) * core._PCG_MULT + inc)
                    & mask)
            assert ((s_hi << 64) | s_lo, (i_hi << 64) | i_lo) == (want, inc)

    def test_pcg_limbs_reproduce_golden_states(self):
        # the `pcg` literals of test_golden_rows: PCG64 seeded at seed 0,
        # ids 0 and 2^64 - 1
        pcg = [(0x9DC7E5C5548209EFE5F1B57E8273DB25,
                0xCD7472B7376A4446DF3664221FC3C153),
               (0x110FE21A87D0FA3BB4C6131BDB023835,
                0x9E2C45ED1DD4A5C8012388F9B7E1E279)]
        limbs = _pcg_states(_spawn_states(0, [0, 2**64 - 1])).tolist()
        assert [((s_hi << 64) | s_lo, (i_hi << 64) | i_lo)
                for s_lo, s_hi, i_lo, i_hi in limbs] == pcg

    def test_dict_setter_fallback_gives_the_same_rows(self, monkeypatch):
        # views that miss the generator's state fail the layout check, and
        # every row then goes through the `state` dict setter
        fast = _permutations(9, _EDGE_IDS, 300)

        def stray_views(bit_gen):
            return np.zeros(4, dtype=np.uint64), np.zeros(1, dtype=np.uint64)

        monkeypatch.setattr(core, "_DIRECT_WRITE", None)
        monkeypatch.setattr(core, "_state_views", stray_views)
        for width in (2, 300):
            perms = _permutations(9, _EDGE_IDS, width)
            assert core._DIRECT_WRITE is False
            for r, stream_id in enumerate(_EDGE_IDS):
                want = substream(9, stream_id).generator().permutation(width)
                assert np.array_equal(perms[r], want)
        assert np.array_equal(perms, fast)


class TestMadSigma:
    def test_gaussian_consistency(self):
        g = substream(123, 0).generator()
        est = mad_sigma(g.standard_normal(100_000))
        assert abs(est - 1.0) <= 0.02

    def test_known_small_sample(self):
        # deviations from median 3 are [2, 1, 0, 1, 2], MAD = 1
        assert mad_sigma([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.4826)

    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateScale):
            mad_sigma([1.0, 1.0, 1.0, 1.0])

    def test_majority_tie_degenerate(self):
        with pytest.raises(DegenerateScale):
            mad_sigma([0.0, 0.0, 0.0, 10.0])

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            mad_sigma([1.0])

    @given(
        st.lists(st.integers(-100, 100), min_size=4, max_size=40),
        st.sampled_from([0.5, 2.0, 4.0, -2.0]),
        st.integers(-50, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_affine_equivariance_exact(self, ints, scale, shift):
        # integer data and power-of-two scales keep float arithmetic exact
        y = np.asarray(ints, dtype=np.float64)
        try:
            base = mad_sigma(y)
        except DegenerateScale:
            with pytest.raises(DegenerateScale):
                mad_sigma(scale * y + shift)
            return
        assert mad_sigma(scale * y + shift) == abs(scale) * base

    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-1.7e308, -1e308, -1.0, 0.0, 1.0, 1e308, 1.7e308]),
    ), min_size=2, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_finite_positive_or_degenerate(self, values):
        # any finite series, magnitudes up to float max included
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                est = mad_sigma(values)
            except DegenerateScale:
                return
        assert math.isfinite(est) and est > 0.0

    def test_scale_near_float_max(self):
        g = np.random.default_rng(8)
        noise = g.normal(0.0, 1.0, 400)
        values = np.r_[np.full(200, -1e308), np.full(200, 1e308)] + noise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mad_sigma(values) == pytest.approx(1.4826e308)
            # a MAD of 1.7e308 times 1.4826 is past float max
            with pytest.raises(DegenerateScale):
                mad_sigma(np.r_[np.full(100, -1.7e308),
                                np.full(100, 1.7e308)])


class TestDetectionConfig:
    def test_accepts_minimal(self):
        cfg = DetectionConfig(h=10, epsilon=0.1, lambda_policy=ManualLambda(1.0))
        assert cfg.maximizer_radius is None
        assert cfg.seed == 0

    def test_numpy_integers_become_ints(self):
        cfg = DetectionConfig(h=np.int64(10), epsilon=0.1,
                              lambda_policy=ManualLambda(1.0),
                              maximizer_radius=np.int32(3),
                              seed=np.uint64(2**64 - 1))
        assert (cfg.h, cfg.maximizer_radius, cfg.seed) == (10, 3, 2**64 - 1)
        assert {type(cfg.h), type(cfg.maximizer_radius), type(cfg.seed)} \
            == {int}

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            DetectionConfig(h=10, epsilon=0.5, lambda_policy=ManualLambda(1.0))

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            DetectionConfig(h=1, epsilon=0.1, lambda_policy=ManualLambda(1.0))

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            DetectionConfig(
                h=10, epsilon=0.1, lambda_policy=ManualLambda(1.0), delta=1.5
            )

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            DetectionConfig(h=10, epsilon=0.1, lambda_policy=ManualLambda(1.0),
                            sigma=sigma)


def _error_classes(cls=ArcCpdError):
    out = {cls}
    for sub in cls.__subclasses__():
        out |= _error_classes(sub)
    return out


class TestErrorsPickle:
    # worker processes send their errors back pickled
    SAMPLES = (
        ArcCpdError("base"),
        EmptySeries("empty"),
        NonFiniteValue(3),
        DegenerateScale("zero MAD"),
        SeriesTooShort("need n >= 4h"),
        InfeasibleWindow(5, 0.3, 0.01, 0.3, 1.7, 0, scan_index=10),
        InfeasibleWindow(5, 0.3, 0.01, 0.3, 1.7, 0),
        SpecInvalid("bad spec"),
        NoFeasibleCandidate("none"),
        LambdaResolutionFailure("no scale"),
        NonFiniteScan(185),
    )

    def test_samples_cover_every_error_class(self):
        assert {type(e) for e in self.SAMPLES} == _error_classes()

    def test_round_trip_keeps_type_and_fields(self):
        for err in self.SAMPLES:
            back = pickle.loads(pickle.dumps(err))
            assert type(back) is type(err)
            assert back.args == err.args
            assert vars(back) == vars(err)


class TestRejections:
    @pytest.mark.parametrize("call, error, match", [
        pytest.param(lambda: DetectionConfig(
            h=10, epsilon=0.1, lambda_policy=ManualLambda(1.0),
            maximizer_radius=0), ValueError, "maximizer_radius must be >= 1",
            id="radius_zero"),
        pytest.param(lambda: DetectionConfig(
            h=10, epsilon=0.1, lambda_policy=ManualLambda(1.0), seed=2**64),
            ValueError, "seed must fit in 64 unsigned bits", id="seed_2_64"),
        # integer fields take what has __index__, but no bool: a float, a
        # bool or a string would be truncated or parsed quietly
        pytest.param(lambda: DetectionConfig(
            h=20.9, epsilon=0.1, lambda_policy=ManualLambda(1.0)),
            ValueError, "h must be an integer, not 20.9", id="h_fraction"),
        pytest.param(lambda: DetectionConfig(
            h=10, epsilon=0.1, lambda_policy=ManualLambda(1.0),
            maximizer_radius=2.5), ValueError,
            "maximizer_radius must be an integer, not 2.5",
            id="radius_fraction"),
        pytest.param(lambda: DetectionConfig(
            h=10, epsilon=0.1, lambda_policy=ManualLambda(1.0), seed=True),
            ValueError, "seed must be an integer, not True", id="seed_bool"),
        pytest.param(lambda: substream(1.5, 0), ValueError,
                     "master_seed must be an integer, not 1.5",
                     id="master_seed_fraction"),
        pytest.param(lambda: substream(0, "7"), ValueError,
                     "stream_id must be an integer, not '7'",
                     id="stream_id_string"),
        # a float location was floored to (2, 5)
        pytest.param(lambda: ChangePointSet((2.7, 5.2), 10), ValueError,
                     "locations must be an integer, not 2.7",
                     id="location_fraction"),
        # a real field takes numbers.Real, but no bool and no string
        pytest.param(lambda: DetectionConfig(
            h=10, epsilon=False, lambda_policy=ManualLambda(1.0)),
            ValueError, r"epsilon must lie in \[0, 0.5\), not False",
            id="epsilon_bool"),
        pytest.param(lambda: DetectionConfig(
            h=10, epsilon="0.1", lambda_policy=ManualLambda(1.0)),
            ValueError, r"epsilon must lie in \[0, 0.5\), not '0.1'",
            id="epsilon_string"),
        # an unknown policy passed here and failed inside detect
        pytest.param(lambda: DetectionConfig(
            h=10, epsilon=0.1, lambda_policy="sim"), ValueError,
            "lambda_policy must be a lambda policy, not 'sim'",
            id="policy_string"),
    ])
    def test_documented_rejection(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
