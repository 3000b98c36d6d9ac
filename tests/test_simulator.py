"""Simulator tests: cells, subarray, peripherals, machine, metrics, trace."""

import numpy as np
import pytest

from repro.arch import paper_spec
from repro.simulator import (
    AllocationError,
    CamMachine,
    EnergyBreakdown,
    ExecutionReport,
    SubarrayState,
    best_match,
    compute_scores,
    dot_similarity,
    euclidean_sq_distance,
    exact_match,
    hamming_distance,
    metric_prefers_larger,
    priority_encode,
    quantize,
    threshold_match,
)
from repro.simulator.cells import DONT_CARE


class TestCells:
    def test_hamming_basic(self):
        stored = np.array([[1, 0, 1], [0, 0, 0]], dtype=float)
        q = np.array([1, 0, 0], dtype=float)
        assert hamming_distance(stored, q).tolist() == [1.0, 1.0]

    def test_hamming_dont_care(self):
        stored = np.array([[1, DONT_CARE, 1]], dtype=float)
        q = np.array([1, 0, 0], dtype=float)
        assert hamming_distance(stored, q).tolist() == [1.0]

    def test_hamming_bipolar_not_dont_care(self):
        """Regression: bipolar -1 must NOT be treated as a wildcard."""
        stored = np.array([[-1.0, -1.0, 1.0]])
        q = np.array([1.0, -1.0, 1.0])
        assert hamming_distance(stored, q).tolist() == [1.0]

    def test_euclidean(self):
        stored = np.array([[0.0, 0.0], [3.0, 4.0]])
        q = np.array([0.0, 0.0])
        assert euclidean_sq_distance(stored, q).tolist() == [0.0, 25.0]

    def test_euclidean_dont_care_free(self):
        stored = np.array([[DONT_CARE, 3.0]])
        q = np.array([100.0, 3.0])
        assert euclidean_sq_distance(stored, q).tolist() == [0.0]

    def test_dot(self):
        stored = np.array([[1.0, 2.0], [0.0, -1.0]])
        q = np.array([2.0, 1.0])
        assert dot_similarity(stored, q).tolist() == [4.0, -1.0]

    def test_compute_scores_dispatch(self):
        stored = np.array([[1.0, 0.0]])
        q = np.array([1.0, 1.0])
        assert compute_scores("hamming", stored, q)[0] == 1.0
        with pytest.raises(ValueError):
            compute_scores("cosine", stored, q)

    def test_metric_direction(self):
        assert metric_prefers_larger("dot")
        assert not metric_prefers_larger("hamming")
        assert not metric_prefers_larger("euclidean")

    def test_quantize_levels(self):
        x = np.linspace(-1, 1, 11)
        q1 = quantize(x, 1)
        assert set(q1.tolist()) <= {0, 1}
        q2 = quantize(x, 2)
        assert set(q2.tolist()) <= {0, 1, 2, 3}
        assert q2.min() == 0 and q2.max() == 3

    def test_quantize_constant_input(self):
        assert quantize(np.ones(5), 2).tolist() == [0] * 5

    def test_quantize_integer_passthrough(self):
        x = np.array([0, 1, 5], dtype=np.int64)
        assert quantize(x, 2).tolist() == [0, 1, 3]

    def test_quantize_monotone(self):
        x = np.sort(np.random.default_rng(0).standard_normal(50))
        q = quantize(x, 2)
        assert all(q[i] <= q[i + 1] for i in range(len(q) - 1))


class TestPeripherals:
    def test_exact_match_distance(self):
        scores = np.array([0.0, 2.0, 0.0])
        assert exact_match(scores, prefers_larger=False).tolist() == \
            [True, False, True]

    def test_exact_match_similarity(self):
        """Only rows reaching the metric's perfect score match — the
        best-scoring row alone is not an exact match."""
        scores = np.array([5.0, 2.0, 5.0])
        assert exact_match(
            scores, prefers_larger=True, perfect_score=8.0
        ).tolist() == [False, False, False]
        assert exact_match(
            scores, prefers_larger=True, perfect_score=5.0
        ).tolist() == [True, False, True]

    def test_exact_match_similarity_needs_perfect_score(self):
        with pytest.raises(ValueError, match="perfect"):
            exact_match(np.array([1.0]), prefers_larger=True)

    def test_exact_match_empty(self):
        assert exact_match(np.array([]), True).size == 0

    def test_threshold_match(self):
        scores = np.array([1.0, 3.0, 5.0])
        assert threshold_match(scores, 3.0, False).tolist() == \
            [True, True, False]
        assert threshold_match(scores, 3.0, True).tolist() == \
            [False, True, True]

    def test_best_match_order(self):
        scores = np.array([5.0, 1.0, 3.0])
        idx, vals = best_match(scores, 2, prefers_larger=False)
        assert idx.tolist() == [1, 2]
        assert vals.tolist() == [1.0, 3.0]

    def test_best_match_stable_ties(self):
        scores = np.array([2.0, 1.0, 1.0])
        idx, _ = best_match(scores, 2, prefers_larger=False)
        assert idx.tolist() == [1, 2]

    def test_best_match_k_clamped(self):
        idx, _ = best_match(np.array([1.0]), 5, True)
        assert idx.tolist() == [0]

    def test_wta_window_clamps_values(self):
        scores = np.array([0.0, 10.0, 2.0])
        _idx, vals = best_match(scores, 3, False, wta_window=3)
        assert vals.max() <= 3.0

    def test_priority_encode(self):
        assert priority_encode(np.array([False, True, True])) == 1
        assert priority_encode(np.array([False, False])) == -1


class TestSubarray:
    def test_write_and_read_window(self):
        sub = SubarrayState(32, 16, 0)
        data = np.arange(80, dtype=float).reshape(5, 16)
        assert sub.write(data) == 5
        assert sub.valid_rows == 5
        cells, valid = sub.row_contents(np.arange(32), 16)
        np.testing.assert_array_equal(cells[valid], data)

    def test_write_offset(self):
        sub = SubarrayState(32, 16, 0)
        sub.write(np.ones((5, 16)), row_offset=10)
        assert sub.valid_rows == 5

    def test_write_bounds(self):
        sub = SubarrayState(8, 16, 0)
        with pytest.raises(ValueError):
            sub.write(np.ones((5, 16)), row_offset=6)
        with pytest.raises(ValueError):
            sub.write(np.ones((2, 32)))

    def test_search_scores(self):
        sub = SubarrayState(8, 4, 0)
        sub.write(np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=float))
        scores, n = sub.search(np.array([1, 1, 1, 1.0]), "hamming")
        assert n == 2
        assert scores.tolist() == [2.0, 0.0]

    def test_search_1d_query_clip(self):
        sub = SubarrayState(8, 4, 0)
        sub.write(np.ones((2, 4)))
        with pytest.raises(ValueError):
            sub.search(np.ones(5), "hamming")

    def test_search_window(self):
        sub = SubarrayState(8, 4, 0)
        sub.write(np.zeros((2, 4)), row_offset=0)
        sub.write(np.ones((2, 4)), row_offset=2)
        scores, n = sub.search(
            np.ones(4), "hamming", row_begin=2, row_count=2
        )
        assert scores.tolist() == [0.0, 0.0]

    def test_accumulate(self):
        sub = SubarrayState(8, 4, 0)
        sub.write(np.zeros((2, 4)), row_offset=0)
        sub.write(np.ones((2, 4)), row_offset=2)
        sub.search(np.ones(4), "hamming", 0, 2, accumulate=True)
        sub.search(np.ones(4), "hamming", 2, 2, accumulate=True)
        values, idx = sub.read(2)
        assert values.tolist() == [4.0, 4.0]  # 4 mismatches + 0
        assert idx.tolist() == [0, 1]

    def test_clear_scores(self):
        sub = SubarrayState(8, 4, 0)
        sub.write(np.zeros((2, 4)))
        sub.search(np.ones(4), "hamming", accumulate=True)
        sub.clear_scores()
        assert sub.read(2)[0].tolist() == [0.0, 0.0]

    def test_counters(self):
        sub = SubarrayState(8, 4, 0)
        sub.write(np.zeros((2, 4)))
        sub.search(np.ones(4), "hamming")
        assert sub.writes == 1 and sub.searches == 1


class TestMachine:
    def make_machine(self, **kw):
        return CamMachine(paper_spec(**kw))

    def test_alloc_hierarchy(self):
        m = self.make_machine()
        b = m.alloc_bank()
        mt = m.alloc_mat(b)
        ar = m.alloc_array(mt)
        s = m.alloc_subarray(ar)
        assert (m.banks_used, m.mats_used, m.arrays_used, m.subarrays_used) \
            == (1, 1, 1, 1)
        assert m.subarray(s).rows == 32

    def test_capacity_limits(self):
        spec = paper_spec()
        m = CamMachine(spec)
        b = m.alloc_bank()
        for _ in range(spec.mats_per_bank):
            m.alloc_mat(b)
        with pytest.raises(AllocationError):
            m.alloc_mat(b)

    def test_bank_cap(self):
        from dataclasses import replace

        m = CamMachine(replace(paper_spec(), banks=1))
        m.alloc_bank()
        with pytest.raises(AllocationError):
            m.alloc_bank()

    def test_invalid_parent(self):
        m = self.make_machine()
        with pytest.raises(AllocationError):
            m.alloc_mat(3)

    def test_write_energy_accounted(self):
        m = self.make_machine()
        s = m.alloc_subarray(m.alloc_array(m.alloc_mat(m.alloc_bank())))
        d = m.write_value(s, np.ones((10, 32)))
        assert d > 0
        assert m.energy.write > 0

    def test_search_functional_and_counted(self):
        m = self.make_machine()
        s = m.alloc_subarray(m.alloc_array(m.alloc_mat(m.alloc_bank())))
        m.write_value(s, np.zeros((4, 32)))
        m.search(s, np.ones(32), metric="hamming")
        vals, idx, _d = m.read(s, 4)
        assert vals.tolist() == [32.0] * 4
        assert m.total_searches == 1

    def test_select_topk(self):
        m = self.make_machine()
        vals, idx, _d = m.select_topk(np.array([3.0, 1.0, 2.0]), 2, False)
        assert idx.tolist() == [1, 2]

    def test_begin_query_clears(self):
        m = self.make_machine()
        s = m.alloc_subarray(m.alloc_array(m.alloc_mat(m.alloc_bank())))
        m.write_value(s, np.zeros((4, 32)))
        m.search(s, np.ones(32), accumulate=True)
        m.begin_query()
        vals, _i = m.subarray(s).read(4)
        assert vals.tolist() == [0.0] * 4

    def test_report_counts(self):
        m = self.make_machine()
        s = m.alloc_subarray(m.alloc_array(m.alloc_mat(m.alloc_bank())))
        m.write_value(s, np.zeros((4, 32)))
        m.search(s, np.ones(32))
        rep = m.finish(10.0, 5.0)
        assert rep.subarrays_used == 1
        assert rep.searches == 1
        assert rep.setup_latency_ns == 5.0
        assert rep.energy.standby > 0

    def test_power_target_gates_subarrays(self):
        spec = paper_spec(optimization_target="power")
        m = CamMachine(spec)
        arr = m.alloc_array(m.alloc_mat(m.alloc_bank()))
        for _ in range(4):
            m.alloc_subarray(arr)
        assert m.powered_subarrays() == m.arrays_used == 1
        assert m.standby_duty() == pytest.approx(0.25)

    def test_base_target_full_standby(self):
        m = self.make_machine()
        arr = m.alloc_array(m.alloc_mat(m.alloc_bank()))
        for _ in range(4):
            m.alloc_subarray(arr)
        assert m.powered_subarrays() == 4
        assert m.standby_duty() == 1.0

    def test_trace_recording(self):
        m = CamMachine(paper_spec(), trace=True)
        s = m.alloc_subarray(m.alloc_array(m.alloc_mat(m.alloc_bank())))
        m.write_value(s, np.ones((2, 32)))
        m.search(s, np.ones(32), at=5.0)
        assert len(m.trace) == 2
        searches = m.trace.by_op("search")
        assert searches[0].start_ns == 5.0
        assert m.trace.total_energy("search") == m.energy.search
        assert m.trace.makespan() >= 5.0


class TestMetrics:
    def test_power_is_energy_over_latency(self):
        rep = ExecutionReport(
            query_latency_ns=10.0,
            energy=EnergyBreakdown(search=100.0),
        )
        assert rep.power_mw == pytest.approx(10.0)

    def test_zero_latency_power(self):
        assert ExecutionReport().power_mw == 0.0

    def test_edp_units(self):
        rep = ExecutionReport(
            query_latency_ns=1e9,  # 1 s
            energy=EnergyBreakdown(search=1e3),  # 1 nJ
        )
        assert rep.edp == pytest.approx(1.0)

    def test_query_energy_excludes_write(self):
        e = EnergyBreakdown(search=10.0, write=100.0)
        assert e.query_total == 10.0
        assert e.total == 110.0

    def test_scaled(self):
        rep = ExecutionReport(
            query_latency_ns=5.0,
            energy=EnergyBreakdown(search=2.0, write=7.0),
            searches=3,
        )
        big = rep.scaled(100)
        assert big.query_latency_ns == 500.0
        assert big.energy.search == 200.0
        assert big.energy.write == 7.0  # programmed once
        assert big.searches == 300
        assert big.queries == 100

    def test_summary_string(self):
        assert "latency=" in ExecutionReport().summary()
