import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repcount.conditioning import (StreamingConditioner, condition_trace,
                                   fill_gaps, is_usable, normalize_outliers)


class TestFillGaps:
    def test_extrapolation(self):
        assert fill_gaps([100.0, 110.0, None]) == [100.0, 110.0, 120.0]

    def test_constant_extrapolates_constant(self):
        assert fill_gaps([150.0, 150.0, None, None]) == [150.0] * 4

    def test_clamp_at_zero(self):
        assert fill_gaps([10.0, 0.0, None]) == [10.0, 0.0, 0.0]

    def test_clamp_at_180(self):
        assert fill_gaps([170.0, 179.0, None]) == [170.0, 179.0, 180.0]

    def test_leading_gaps_backfilled(self):
        assert fill_gaps([None, None, 50.0, 60.0]) == [50.0, 50.0, 50.0, 60.0]

    def test_too_few_valid_untouched(self):
        trace = [None, 90.0, None]
        assert not is_usable(trace)
        assert fill_gaps(trace) == trace

    def test_non_gap_samples_never_altered(self):
        rng = np.random.default_rng(0)
        vals = list(rng.uniform(0, 180, 50))
        trace = list(vals)
        for i in rng.choice(50, size=10, replace=False):
            if i > 1:
                trace[i] = None
        out = fill_gaps(trace)
        assert all(v is not None for v in out)
        for i, v in enumerate(trace):
            if v is not None:
                assert out[i] == v

    def test_outputs_in_range(self):
        rng = np.random.default_rng(1)
        trace = [float(v) for v in rng.uniform(0, 180, 100)]
        for i in rng.choice(98, size=30, replace=False):
            trace[i + 2] = None
        out = fill_gaps(trace)
        assert all(0.0 <= v <= 180.0 for v in out)


class TestNormalizeOutliers:
    def test_monotone_unchanged(self):
        assert normalize_outliers([100.0, 110.0, 120.0], mid=120.0) == [100.0, 110.0, 120.0]

    def test_compound_condition_cases(self):
        # 125 < mid and 125 < neighbor mean 130: second clause needs > mean
        assert normalize_outliers([100.0, 125.0, 160.0], mid=130.0) == [100.0, 125.0, 160.0]
        # 135 > mid but 135 > neighbor mean 130: first clause needs < mean
        assert normalize_outliers([100.0, 135.0, 160.0], mid=130.0) == [100.0, 135.0, 160.0]

    def test_spike_toward_mid_replaced(self):
        # 112 < mid 116 and above its neighbor mean 110: pulled to the mean
        assert normalize_outliers([100.0, 112.0, 120.0], mid=116.0) == [100.0, 110.0, 120.0]

    def test_dip_toward_mid_from_above_replaced(self):
        assert normalize_outliers([150.0, 122.0, 150.0], mid=120.0) == [150.0, 150.0, 150.0]

    def test_constant_unchanged(self):
        trace = [90.0] * 10
        assert normalize_outliers(trace, mid=45.0, iterations=5) == trace

    def test_zero_iterations_identity(self):
        trace = [100.0, 112.0, 120.0]
        assert normalize_outliers(trace, mid=116.0, iterations=0) == trace

    def test_endpoints_never_modified(self):
        rng = np.random.default_rng(4)
        trace = [float(v) for v in rng.uniform(0, 180, 40)]
        out = normalize_outliers(trace, mid=90.0, iterations=3)
        assert out[0] == trace[0] and out[-1] == trace[-1]

    def test_outputs_in_range(self):
        rng = np.random.default_rng(5)
        trace = [float(v) for v in rng.uniform(0, 180, 200)]
        out = normalize_outliers(trace, mid=90.0, iterations=3)
        assert all(0.0 <= v <= 180.0 for v in out)


class TestFullConditioning:
    def test_identity_on_clean_sinusoid(self):
        mid, amp, period = 120.0, 45.0, 20
        trace = [mid + amp * np.cos(2 * np.pi * t / period) for t in range(400)]
        out = condition_trace(list(trace), mid)
        assert np.max(np.abs(np.array(out) - np.array(trace))) < 1e-9

    def test_gap_then_outlier(self):
        trace = [100.0, 110.0, None, 130.0, 140.0]
        out = condition_trace(trace, mid=90.0)
        assert out[2] == 120.0

    def test_too_few_valid_raises(self):
        with pytest.raises(ValueError):
            condition_trace([None, 90.0, None], mid=90.0)


class TestStreamingConditioner:
    def run_stream(self, trace, mid):
        sc = StreamingConditioner(mid)
        out = []
        for f, v in enumerate(trace):
            out.extend(sc.feed(f, v))
        out.extend(sc.flush())
        return out

    def test_frames_in_order_one_frame_latency(self):
        sc = StreamingConditioner(90.0)
        assert sc.feed(0, 10.0) == []
        emitted = sc.feed(1, 20.0)
        assert [e[0] for e in emitted] == [0]
        assert sc.flush()[0][0] == 1

    def test_matches_batch_on_clean_sinusoid(self):
        mid = 120.0
        trace = [mid + 45 * np.cos(2 * np.pi * t / 20) for t in range(200)]
        out = self.run_stream(trace, mid)
        assert [f for f, _, _ in out] == list(range(200))
        conditioned = [c for _, _, c in out]
        assert np.max(np.abs(np.array(conditioned) - np.array(trace))) < 1e-9

    def test_gap_fill_matches_batch(self):
        trace = [100.0, 110.0, None, 130.0, None, None, 100.0]
        batch = fill_gaps(list(trace))
        out = self.run_stream(trace, mid=90.0)
        assert [filled for _, filled, _ in out] == batch

    def test_leading_gaps_backfilled(self):
        trace = [None, None, 50.0, 60.0]
        out = self.run_stream(trace, mid=90.0)
        assert [c for _, _, c in out] == [50.0, 50.0, 50.0, 60.0]
        assert [f for f, _, _ in out] == [0, 1, 2, 3]

    def test_single_spike_corrected_as_in_batch(self):
        trace = [100.0, 112.0, 120.0, 121.0]
        batch = normalize_outliers(list(trace), mid=116.0)
        out = self.run_stream(trace, mid=116.0)
        assert [c for _, _, c in out] == batch

    def test_flush_forgets_the_stream(self):
        # 10 from before the flush must not pull the new stream's first sample
        # toward 25, its mean with 40: an endpoint is never modified
        sc = StreamingConditioner(90.0)
        sc.feed(0, 10.0)
        sc.feed(1, 20.0)
        assert sc.flush() == [(1, 20.0, 20.0)]
        assert sc.feed(2, 30.0) == []
        assert sc.feed(3, 40.0) == [(2, 30.0, 30.0)]
        assert sc.flush() == [(3, 40.0, 40.0)]

    @given(before=st.lists(st.one_of(st.none(), st.floats(0.0, 180.0)), max_size=20),
           after=st.lists(st.one_of(st.none(), st.floats(0.0, 180.0)), max_size=20),
           mid=st.floats(0.0, 180.0))
    def test_after_a_flush_it_runs_as_a_new_conditioner(self, before, after, mid):
        sc, fresh = StreamingConditioner(mid), StreamingConditioner(mid)
        for f, v in enumerate(before):
            sc.feed(f, v)
        sc.flush()
        for f, v in enumerate(after, start=len(before)):
            assert sc.feed(f, v) == fresh.feed(f, v)
        assert sc.flush() == fresh.flush()

    @given(trace=st.lists(st.one_of(st.none(), st.floats(0.0, 180.0)),
                          min_size=2, max_size=80).filter(is_usable),
           mid=st.floats(0.0, 180.0))
    def test_equals_one_batch_sweep_on_random_gappy_traces(self, trace, mid):
        filled = fill_gaps(trace)
        batch = normalize_outliers(filled, mid)
        assert condition_trace(trace, mid) == batch
        out = self.run_stream(trace, mid)
        assert [f for f, _, _ in out] == list(range(len(trace)))
        assert [v for _, v, _ in out] == filled
        assert [c for _, _, c in out] == batch
