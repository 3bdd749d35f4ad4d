"""Domain types, validation, and the substream randomness contract."""

import math
import pickle
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
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
    SegmentPartition,
    SeriesTooShort,
    SpecInvalid,
    TimeSeries,
    mad_sigma,
    substream,
    validate_series,
)


class TestValidateSeries:
    def test_well_formed(self):
        ts = validate_series([1.0, 2.0, 3.0])
        assert ts.n == 3
        assert ts.values.dtype == np.float64

    def test_empty_rejected(self):
        with pytest.raises(EmptySeries):
            validate_series([])

    def test_nan_position_is_one_based(self):
        with pytest.raises(NonFiniteValue) as exc:
            validate_series([1.0, float("nan")])
        assert exc.value.index == 2

    def test_inf_rejected(self):
        with pytest.raises(NonFiniteValue) as exc:
            validate_series([math.inf, 0.0])
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

    def test_partition_blocks(self):
        part = ChangePointSet((3, 7), 10).to_partition()
        assert part.blocks == ((1, 3), (4, 7), (8, 10))
        assert part.n == 10

    def test_round_trip_exhaustive_small_n(self):
        # every subset of {1, ..., n-1} for n up to 10
        for n in range(1, 11):
            pool = range(1, n)
            for size in range(0, n):
                for locs in combinations(pool, size):
                    cps = ChangePointSet(locs, n)
                    back = cps.to_partition().to_change_points()
                    assert back == cps

    @given(st.integers(11, 50), st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_randomized(self, n, data):
        locs = data.draw(
            st.lists(st.integers(1, n - 1), unique=True, max_size=n - 1)
        )
        cps = ChangePointSet(tuple(sorted(locs)), n)
        assert cps.to_partition().to_change_points() == cps


class TestSegmentPartition:
    def test_must_start_at_one(self):
        with pytest.raises(ValueError):
            SegmentPartition(((2, 5),))

    def test_must_be_contiguous(self):
        with pytest.raises(ValueError):
            SegmentPartition(((1, 3), (5, 9)))

    def test_block_order(self):
        with pytest.raises(ValueError):
            SegmentPartition(((1, 3), (4, 2)))


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


class TestDetectionConfig:
    def test_accepts_minimal(self):
        cfg = DetectionConfig(h=10, epsilon=0.1, lambda_policy=ManualLambda(1.0))
        assert cfg.maximizer_radius is None
        assert cfg.seed == 0

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
