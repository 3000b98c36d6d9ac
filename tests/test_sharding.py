"""Sharded multi-machine sessions and the capacity-error path.

Covers the ShardedSession subsystem (row sharding across independently
programmed machines, fan-out/merge, honest multi-machine reports), the
compiler's ``num_shards`` / auto-shard-on-overflow plumbing, the
CapacityError raised wherever a store overflows a bank-capped machine,
and the sharded pattern matcher.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps import PatternMatcher
from repro.arch import dse_spec, paper_spec
from repro.arch.technology import FEFET_45NM
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime.session import SessionError
from repro.runtime.sharding import (
    ShardedSession,
    aggregate_reports,
    plan_shard_count,
    shard_sizes,
)
from repro.transforms import CapacityError, machine_row_capacity


def compile_dot(dot_kernel, stored, shape, k=1, largest=True, **kw):
    return C4CAMCompiler(kw.pop("spec", paper_spec())).compile(
        dot_kernel(stored, k=k, largest=largest), [placeholder(shape)], **kw
    )


# --------------------------------------------------------------------------
# Shard planning
# --------------------------------------------------------------------------
class TestShardPlanning:
    def test_shard_sizes_balanced(self):
        assert shard_sizes(10, 1) == [10]
        assert shard_sizes(10, 3) == [4, 3, 3]
        assert shard_sizes(9, 3) == [3, 3, 3]
        assert shard_sizes(5, 5) == [1, 1, 1, 1, 1]
        with pytest.raises(ValueError):
            shard_sizes(3, 4)

    def test_auto_count_unbounded_spec_is_one(self):
        spec = dse_spec(16)  # banks on demand: everything fits
        assert plan_shard_count(10_000, 1024, 1, spec, False) == 1

    def test_auto_count_matches_capacity(self):
        # 1 bank of 128 subarrays, 16x16 cells, D=1024 -> 64 col tiles
        # -> 2 row tiles -> 32-row capacity.
        spec = replace(dse_spec(16), banks=1)
        assert machine_row_capacity(spec, 1024) == 32
        assert plan_shard_count(32, 1024, 1, spec, False) == 1
        assert plan_shard_count(33, 1024, 1, spec, False) == 2
        assert plan_shard_count(100, 1024, 1, spec, False) == 4

    def test_forced_undersized_count_raises(self):
        spec = replace(dse_spec(16), banks=1)
        with pytest.raises(CapacityError) as exc_info:
            plan_shard_count(100, 1024, 1, spec, False, num_shards=2)
        # The error describes the full store, not the tripping shard.
        err = exc_info.value
        assert err.required_rows == 100
        assert err.available_rows == 32
        assert ">= 4 machines" in str(err)

    def test_row_capacity_unbounded_is_none(self):
        assert machine_row_capacity(dse_spec(16), 1024) is None

    def test_density_extends_row_capacity(self):
        """Density stacking can fit stores the plain placement cannot;
        the capacity figure (and CapacityError hints) must agree with
        the density-aware fit check."""
        spec = replace(dse_spec(16, "density"), banks=1)
        # 4096 features -> 256 col tiles > 128 subarrays: plain
        # capacity is 0, but stacking rows//R tiles per subarray fits.
        assert machine_row_capacity(spec, 4096) == 0
        density_rows = machine_row_capacity(spec, 4096, use_density=True)
        assert density_rows > 0
        assert plan_shard_count(density_rows, 4096, 1, spec, True) == 1
        # An overflowing store still hints at a *useful* shard count.
        with pytest.raises(CapacityError) as exc_info:
            plan_shard_count(64, 4096, 1, spec, True, num_shards=1)
        err = exc_info.value
        assert err.available_rows == density_rows
        assert "sharding cannot help" not in str(err)
        auto = plan_shard_count(64, 4096, 1, spec, True)
        assert auto > 1


# --------------------------------------------------------------------------
# Functional equivalence: N shards == one big machine, bitwise
# --------------------------------------------------------------------------
class TestShardInvariance:
    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_dot_matches_single_machine(self, dot_kernel, rng, num_shards):
        """Explicit shard counts return bitwise-identical results."""
        stored = rng.choice([-1.0, 1.0], (40, 128)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (6, 128)).astype(np.float32)
        spec = dse_spec(16)
        single = compile_dot(dot_kernel, stored, (1, 128), k=3, spec=spec)
        sharded = compile_dot(
            dot_kernel, stored, (1, 128), k=3, spec=spec,
            num_shards=num_shards,
        )
        assert sharded.num_shards == num_shards
        sv, si = single.run_batch(queries)
        hv, hi = sharded.run_batch(queries)
        np.testing.assert_array_equal(si, hi)
        np.testing.assert_array_equal(sv, hv)

    @pytest.mark.parametrize("target", ["latency", "power", "density"])
    def test_invariance_across_targets(self, dot_kernel, rng, target):
        """Sharding composes with every optimization configuration."""
        stored = rng.choice([-1.0, 1.0], (24, 64)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (5, 64)).astype(np.float32)
        spec = dse_spec(16, target)
        single = compile_dot(dot_kernel, stored, (1, 64), k=2, spec=spec)
        sharded = compile_dot(
            dot_kernel, stored, (1, 64), k=2, spec=spec, num_shards=3
        )
        sv, si = single.run_batch(queries)
        hv, hi = sharded.run_batch(queries)
        np.testing.assert_array_equal(si, hi)
        np.testing.assert_array_equal(sv, hv)

    def test_euclidean_matches_single_machine(self, euclidean_kernel, rng):
        """The 1-D-traced KNN kernel shards too (rank-1 query trace)."""
        stored = rng.standard_normal((70, 64)).astype(np.float32)
        queries = rng.standard_normal((5, 64)).astype(np.float32)
        spec = paper_spec(rows=16, cols=32, cam_type="acam")
        single = C4CAMCompiler(spec).compile(
            euclidean_kernel(stored, k=5), [placeholder((64,))]
        )
        sharded = C4CAMCompiler(spec).compile(
            euclidean_kernel(stored, k=5), [placeholder((64,))], num_shards=3
        )
        sv, si = single.run_batch(queries)
        hv, hi = sharded.run_batch(queries)
        np.testing.assert_array_equal(si, hi)
        np.testing.assert_array_equal(sv, hv)

    def test_ties_resolve_to_lowest_global_row(self, dot_kernel):
        """Duplicate stored rows score equal; the merge must keep the
        single-machine lowest-index tie-break across shard boundaries."""
        stored = np.tile(
            np.sign(np.arange(32) - 7.5).astype(np.float32), (12, 1)
        )  # 12 identical rows -> every score ties
        queries = stored[:2]
        spec = dse_spec(16)
        single = compile_dot(dot_kernel, stored, (1, 32), k=4, spec=spec)
        sharded = compile_dot(
            dot_kernel, stored, (1, 32), k=4, spec=spec, num_shards=3
        )
        sv, si = single.run_batch(queries)
        hv, hi = sharded.run_batch(queries)
        np.testing.assert_array_equal(si, hi)
        np.testing.assert_array_equal(sv, hv)

    def test_wta_window_matches_single_machine(self, dot_kernel, rng):
        """A winner-take-all sensing window clamps against the *global*
        winner: per-shard clamps must not leak into the merge (the
        merge re-ranks unclamped scores and clamps once)."""
        from dataclasses import replace as dc_replace

        from repro.arch.technology import FEFET_45NM
        from repro.compiler import C4CAMCompiler
        from repro.frontend import placeholder

        stored = rng.choice([-1.0, 1.0], (24, 64)).astype(np.float32)
        # Shard 0's local runner-up is far off the global winner; with a
        # per-shard clamp it would masquerade as a near-tie.
        stored[1] = -stored[0]
        queries = np.vstack([stored[0], stored[17]])
        spec = dse_spec(16)
        tech = dc_replace(FEFET_45NM, wta_window=2)
        single = C4CAMCompiler(spec, tech).compile(
            dot_kernel(stored, k=4), [placeholder((1, 64))]
        )
        sharded = C4CAMCompiler(spec, tech).compile(
            dot_kernel(stored, k=4), [placeholder((1, 64))], num_shards=3
        )
        sv, si = single.run_batch(queries)
        hv, hi = sharded.run_batch(queries)
        np.testing.assert_array_equal(si, hi)
        np.testing.assert_array_equal(sv, hv)

    def test_call_dispatches_through_shards(self, dot_kernel, rng):
        """kernel(queries) and kernel.run_batch agree on sharded kernels."""
        stored = rng.choice([-1.0, 1.0], (20, 64)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (4, 64)).astype(np.float32)
        kernel = compile_dot(
            dot_kernel, stored, (1, 64), k=2, spec=dse_spec(16), num_shards=2
        )
        cv, ci = kernel(queries)
        kernel.reset()
        bv, bi = kernel.run_batch(queries)
        np.testing.assert_array_equal(ci, bi)
        np.testing.assert_array_equal(cv, bv)


# --------------------------------------------------------------------------
# Auto-shard on overflow (the serving-capacity story)
# --------------------------------------------------------------------------
class TestAutoShard:
    def test_overflowing_store_auto_shards(self, dot_kernel, rng):
        """A store beyond one machine's rows runs via ShardedSession and
        matches an (oversized) single-machine reference bitwise."""
        stored = rng.choice([-1.0, 1.0], (100, 1024)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (7, 1024)).astype(np.float32)
        capped = replace(dse_spec(16), banks=1)  # 32-row capacity
        oversized = dse_spec(16)                 # same geometry, no cap

        reference = compile_dot(dot_kernel, stored, (1, 1024), k=3,
                                spec=oversized)
        sharded = compile_dot(dot_kernel, stored, (1, 1024), k=3, spec=capped)
        assert sharded.num_shards == 4
        assert isinstance(sharded.session(), ShardedSession)

        rv, ri = reference.run_batch(queries)
        hv, hi = sharded.run_batch(queries)
        np.testing.assert_array_equal(ri, hi)
        np.testing.assert_array_equal(rv, hv)
        # Every shard machine respects the bank cap.
        for machine in sharded.session().machines:
            assert machine.banks_used <= capped.banks

    def test_fitting_store_stays_single_machine(self, dot_kernel, rng):
        stored = rng.choice([-1.0, 1.0], (16, 1024)).astype(np.float32)
        capped = replace(dse_spec(16), banks=1)
        kernel = compile_dot(dot_kernel, stored, (1, 1024), spec=capped)
        assert kernel.num_shards == 1
        assert kernel.shard_set is None

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_num_shards_follows_splits(self, dot_kernel, rng, replicas):
        """Inserts that split a shard raise the kernel's count with its
        session's; ``reset()`` goes back to the compiled layout."""
        spec = replace(paper_spec(rows=8, cols=8, cam_type="acam"), banks=2)
        stored = rng.standard_normal((8, 8)).astype(np.float32)
        kernel = compile_dot(dot_kernel, stored, (1, 8), k=2, spec=spec,
                             num_shards=2, num_replicas=replicas)
        assert kernel.num_shards == 2
        for _ in range(20):
            kernel.insert(rng.standard_normal((1, 8)).astype(np.float32))
        assert kernel.session().num_shards == 4
        assert kernel.num_shards == 4
        assert kernel.shard_set.num_shards == 2   # the compiled layout
        kernel.reset()
        assert kernel.num_shards == 2
        assert kernel.session().num_shards == 2

    def test_reset_after_split_matches_fresh_kernel(self, dot_kernel, rng):
        """``reset()`` re-deploys the compiled layout: after inserts split
        both shards, the next batch answers and charges exactly what a
        freshly compiled kernel's first batch does (the split machines'
        banks and standby power are gone, not kept holding no rows)."""
        spec = replace(paper_spec(rows=8, cols=8, cam_type="acam"), banks=2)
        stored = rng.standard_normal((8, 8)).astype(np.float32)
        queries = rng.standard_normal((3, 8)).astype(np.float32)

        def compile_probe():
            return compile_dot(dot_kernel, stored, (1, 8), k=3, spec=spec,
                               num_shards=2)

        kernel = compile_probe()
        for _ in range(20):
            kernel.insert(rng.standard_normal((1, 8)).astype(np.float32))
        assert kernel.num_shards == 4
        kernel.reset()
        values, indices = kernel.run_batch(queries)
        report = kernel.last_report

        fresh = compile_probe()
        fresh_values, fresh_indices = fresh.run_batch(queries)
        expected = fresh.last_report
        np.testing.assert_array_equal(indices, fresh_indices)
        np.testing.assert_array_equal(values, fresh_values)
        assert report.banks_used == expected.banks_used == 2
        assert report.energy == expected.energy
        assert report.energy.standby == pytest.approx(166.2, abs=0.05)
        assert report.query_latency_ns == expected.query_latency_ns
        assert report.setup_latency_ns == expected.setup_latency_ns

    def test_noise_reproducible_and_decorrelated(self, dot_kernel, rng):
        stored = rng.choice([-1.0, 1.0], (20, 64)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (4, 64)).astype(np.float32)
        make = lambda: compile_dot(
            dot_kernel, stored, (1, 64), k=2, spec=dse_spec(16),
            num_shards=2, noise_sigma=0.2, noise_seed=11,
        )
        a, b = make(), make()
        av, ai = a.run_batch(queries)
        bv, bi = b.run_batch(queries)
        np.testing.assert_array_equal(ai, bi)
        np.testing.assert_array_equal(av, bv)
        # A second batch draws a fresh realization.
        a2v, _ = a.run_batch(queries)
        assert not np.array_equal(av, a2v)


# --------------------------------------------------------------------------
# CapacityError: loud overflow everywhere
# --------------------------------------------------------------------------
class TestCapacityError:
    def test_forced_single_machine_overflow_raises(self, dot_kernel, rng):
        stored = rng.choice([-1.0, 1.0], (100, 1024)).astype(np.float32)
        capped = replace(dse_spec(16), banks=1)
        with pytest.raises(CapacityError) as exc_info:
            compile_dot(dot_kernel, stored, (1, 1024), spec=capped,
                        num_shards=1)
        err = exc_info.value
        assert err.required_rows == 100
        assert err.available_rows == 32
        assert "num_shards" in str(err)
        assert "banks" in str(err)

    def test_matcher_overflow_raises(self, rng):
        patterns = rng.choice([0.0, 1.0], (80, 1024))
        capped = replace(dse_spec(16), banks=1)
        with pytest.raises(CapacityError, match="rows"):
            PatternMatcher(patterns, capped)

    def test_non_shardable_model_with_shards_raises(self, rng):
        """num_shards on a model that is not a pure similarity kernel
        fails loudly rather than sharding something else."""
        import repro.frontend.torch_api as torch

        stored = rng.choice([-1.0, 1.0], (8, 64)).astype(np.float32)

        class NotJustSimilarity(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(stored)

            def forward(self, input):
                others = self.weight.transpose(-2, -1)
                matmul = torch.matmul(input, others)
                values, indices = torch.ops.aten.topk(matmul, 1, largest=True)
                return values, indices, matmul  # extra output

        with pytest.raises(SessionError, match="similarity"):
            C4CAMCompiler(dse_spec(16)).compile(
                NotJustSimilarity(), [placeholder((2, 64))], num_shards=2
            )

    def test_multi_input_model_with_shards_raises(self, rng):
        """A traced function with extra inputs cannot shard: the shard
        call contract is one query batch, so compile must refuse."""
        import repro.frontend.torch_api as torch

        stored = rng.choice([-1.0, 1.0], (8, 64)).astype(np.float32)

        class TwoInputs(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(stored)

            def forward(self, input, unused):
                others = self.weight.transpose(-2, -1)
                matmul = torch.matmul(input, others)
                return torch.ops.aten.topk(matmul, 1, largest=True)

        with pytest.raises(SessionError, match="similarity"):
            C4CAMCompiler(dse_spec(16)).compile(
                TwoInputs(),
                [placeholder((2, 64)), placeholder((2, 64))],
                num_shards=2,
            )

    def test_host_reference_path_rejects_shards(self, dot_kernel, rng):
        """lower_to_cam=False has no machines: num_shards > 1 must fail
        loudly instead of being silently dropped."""
        stored = rng.choice([-1.0, 1.0], (8, 64)).astype(np.float32)
        with pytest.raises(ValueError, match="lower_to_cam"):
            C4CAMCompiler(dse_spec(16)).compile(
                dot_kernel(stored), [placeholder((2, 64))],
                lower_to_cam=False, num_shards=2,
            )

    def test_zero_capacity_hint_says_enlarge(self):
        """When not even one row fits, the hint must not suggest
        sharding."""
        spec = replace(paper_spec(rows=8, cols=8), banks=1,
                       subarrays_per_array=1, arrays_per_mat=1,
                       mats_per_bank=1)  # 1 subarray, D needs 16 tiles
        with pytest.raises(CapacityError, match="sharding cannot help"):
            plan_shard_count(4, 128, 1, spec, False)

    def test_boundary_exactly_at_row_capacity(self, dot_kernel, rng):
        """A store of exactly machine_row_capacity rows is the last one
        that must compile single-machine; one more row flips both the
        forced-single error and the auto-shard decision."""
        capped = replace(dse_spec(16), banks=1)
        capacity = machine_row_capacity(capped, 1024)
        assert capacity == 32

        exact = rng.choice([-1.0, 1.0], (capacity, 1024)).astype(np.float32)
        kernel = compile_dot(dot_kernel, exact, (1, 1024), spec=capped,
                             num_shards=1)
        assert kernel.num_shards == 1 and kernel.shard_set is None
        auto = compile_dot(dot_kernel, exact, (1, 1024), spec=capped)
        assert auto.num_shards == 1  # no phantom shard at the boundary

        over = rng.choice([-1.0, 1.0], (capacity + 1, 1024)).astype(
            np.float32
        )
        with pytest.raises(CapacityError) as exc_info:
            compile_dot(dot_kernel, over, (1, 1024), spec=capped,
                        num_shards=1)
        assert exc_info.value.required_rows == capacity + 1
        assert exc_info.value.available_rows == capacity
        sharded = compile_dot(dot_kernel, over, (1, 1024), spec=capped)
        assert sharded.num_shards == 2
        # The one-row overflow still answers identically to an
        # unbounded machine.
        queries = rng.choice([-1.0, 1.0], (3, 1024)).astype(np.float32)
        reference = compile_dot(dot_kernel, over, (1, 1024),
                                spec=dse_spec(16))
        rv, ri = reference.run_batch(queries)
        hv, hi = sharded.run_batch(queries)
        np.testing.assert_array_equal(ri, hi)
        np.testing.assert_array_equal(rv, hv)

    def test_density_boundary_on_bank_capped_spec(self, dot_kernel, rng):
        """Density stacking extends a bank-capped machine's row capacity;
        the compiled kernel and the CapacityError must both honour the
        density-aware figure, not the plain one."""
        capped = replace(dse_spec(16, "density"), banks=1)
        plain = machine_row_capacity(capped, 4096)
        dense = machine_row_capacity(capped, 4096, use_density=True)
        assert plain == 0 and dense > 0

        fits = rng.choice([-1.0, 1.0], (dense, 4096)).astype(np.float32)
        kernel = compile_dot(dot_kernel, fits, (1, 4096), spec=capped,
                             num_shards=1)
        assert kernel.num_shards == 1
        assert kernel.last_machine is None  # compiled, not yet run
        _v, idx = kernel.run_batch(fits[:2])
        np.testing.assert_array_equal(idx[:, 0], [0, 1])
        assert kernel.last_machine.banks_used <= 1

        over = rng.choice([-1.0, 1.0], (dense + 1, 4096)).astype(np.float32)
        with pytest.raises(CapacityError) as exc_info:
            compile_dot(dot_kernel, over, (1, 4096), spec=capped,
                        num_shards=1)
        assert exc_info.value.available_rows == dense
        assert "sharding cannot help" not in str(exc_info.value)
        auto = compile_dot(dot_kernel, over, (1, 4096), spec=capped)
        assert auto.num_shards == 2


# --------------------------------------------------------------------------
# Report aggregation: honest multi-machine accounting
# --------------------------------------------------------------------------
class TestShardReports:
    def test_energy_sums_latency_maxes(self, dot_kernel, rng):
        stored = rng.choice([-1.0, 1.0], (40, 128)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (6, 128)).astype(np.float32)
        kernel = compile_dot(
            dot_kernel, stored, (1, 128), k=3, spec=dse_spec(16), num_shards=3
        )
        kernel.run_batch(queries)
        session = kernel.session()
        shard_reports = [s.last_report for s in session.sessions]
        report = kernel.last_report

        # Latency: max over shards + the cross-shard top-k merge.
        candidates = sum(min(3, sh.rows) for sh in kernel.shard_set.shards)
        merge = len(queries) * FEFET_45NM.host_topk_latency(candidates)
        assert report.query_latency_ns == pytest.approx(
            max(r.query_latency_ns for r in shard_reports) + merge
        )
        # Setup: machines program in parallel.
        assert report.setup_latency_ns == pytest.approx(
            max(r.setup_latency_ns for r in shard_reports)
        )
        # Energy: N machines burn N machines' worth.
        for key in ("search", "read", "merge", "write", "standby"):
            assert getattr(report.energy, key) == pytest.approx(
                sum(getattr(r.energy, key) for r in shard_reports)
            ), key
        merge_energy = len(queries) * FEFET_45NM.host_topk_energy(candidates)
        assert report.energy.host == pytest.approx(
            sum(r.energy.host for r in shard_reports) + merge_energy
        )
        # Allocation and work counts sum; queries is the batch size.
        assert report.banks_used == sum(r.banks_used for r in shard_reports)
        assert report.subarrays_used == sum(
            r.subarrays_used for r in shard_reports
        )
        assert report.searches == sum(r.searches for r in shard_reports)
        assert report.queries == len(queries)
        assert report.throughput_qps > 0

    def test_setup_charged_once_across_batches(self, dot_kernel, rng):
        stored = rng.choice([-1.0, 1.0], (30, 64)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (4, 64)).astype(np.float32)
        kernel = compile_dot(
            dot_kernel, stored, (1, 64), spec=dse_spec(16), num_shards=2
        )
        kernel.run_batch(queries)
        write_first = kernel.last_report.energy.write
        writes = [m.energy.write for m in kernel.session().machines]
        kernel.run_batch(queries)
        assert kernel.last_report.energy.write == pytest.approx(write_first)
        assert [
            m.energy.write for m in kernel.session().machines
        ] == writes  # no re-programming

    def test_aggregate_view_spans_all_machines(self, dot_kernel, rng):
        """The session's machine view feeds utilization/format_report."""
        from repro.simulator.analysis import format_report, utilization

        stored = rng.choice([-1.0, 1.0], (30, 64)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (4, 64)).astype(np.float32)
        kernel = compile_dot(
            dot_kernel, stored, (1, 64), spec=dse_spec(16), num_shards=2
        )
        kernel.run_batch(queries)
        view = kernel.last_machine
        machines = view.machines
        assert view.subarrays_used == sum(m.subarrays_used for m in machines)
        assert view.chip_area_mm2() == pytest.approx(
            sum(m.chip_area_mm2() for m in machines)
        )
        stats = utilization(view)
        assert stats.subarrays_allocated == view.subarrays_used
        assert "mm^2" in format_report(kernel.last_report, view)

    def test_aggregate_reports_requires_input(self):
        with pytest.raises(ValueError):
            aggregate_reports([])

    def test_aggregate_rejects_mismatched_specs(self, rng):
        """Reports from two different presets must not silently sum:
        maxing latencies / adding energies across machine models would
        fabricate a system that does not exist."""
        patterns = rng.choice([0.0, 1.0], (8, 64))
        small = PatternMatcher(patterns, dse_spec(16))
        big = PatternMatcher(patterns, paper_spec(rows=64, cols=64))
        small.lookup(patterns[0])
        big.lookup(patterns[0])
        with pytest.raises(ValueError, match="ArchSpec"):
            aggregate_reports([small.report(), big.report()])
        # Same-preset reports still aggregate (and carry the spec).
        twin = PatternMatcher(patterns, dse_spec(16))
        twin.lookup(patterns[0])
        merged = aggregate_reports([small.report(), twin.report()])
        assert merged.spec == dse_spec(16)
        # Legacy reports without a spec stay permissive.
        from repro.simulator.metrics import ExecutionReport

        merged = aggregate_reports([small.report(), ExecutionReport()])
        assert merged.spec == dse_spec(16)


# --------------------------------------------------------------------------
# Sharded pattern matching (runtime-library usage mode)
# --------------------------------------------------------------------------
class TestShardedPatternMatcher:
    def test_matches_single_machine_matcher(self, rng):
        patterns = rng.choice([0.0, 1.0], (50, 64))
        queries = np.vstack([patterns[7], patterns[33], rng.choice([0.0, 1.0], 64)])
        spec = dse_spec(16)
        single = PatternMatcher(patterns, spec)
        sharded = PatternMatcher(patterns, spec, num_shards=3)
        assert sharded.num_shards == 3
        for threshold in (0.0, 3.0):
            expected = single.lookup_batch(queries, threshold)
            got = sharded.lookup_batch(queries, threshold)
            for e, g in zip(expected, got):
                np.testing.assert_array_equal(e.indices, g.indices)
                np.testing.assert_array_equal(e.distances, g.distances)
                assert e.first == g.first

    def test_auto_shards_past_capacity(self, rng):
        patterns = rng.choice([0.0, 1.0], (80, 1024))
        capped = replace(dse_spec(16), banks=1)
        sharded = PatternMatcher(patterns, capped, num_shards=None)
        assert sharded.num_shards >= 2
        result = sharded.lookup(patterns[63], threshold=0.0)
        assert 63 in result.indices
        # Reference semantics on an uncapped machine.
        single = PatternMatcher(patterns, dse_spec(16))
        expected = single.lookup(patterns[63], threshold=0.0)
        np.testing.assert_array_equal(result.indices, expected.indices)

    def test_report_aggregates(self, rng):
        patterns = rng.choice([0.0, 1.0], (48, 64))
        spec = dse_spec(16)
        sharded = PatternMatcher(patterns, spec, num_shards=2)
        queries = rng.choice([0.0, 1.0], (5, 64))
        sharded.lookup_batch(queries, threshold=2.0)
        report = sharded.report()
        shard_reports = [m.report() for m in sharded.store.sessions]
        assert report.queries == 5
        assert report.banks_used == sum(r.banks_used for r in shard_reports)
        assert report.query_latency_ns > max(
            r.query_latency_ns for r in shard_reports
        )
        assert report.energy.write == pytest.approx(
            sum(r.energy.write for r in shard_reports)
        )


# --------------------------------------------------------------------------
# CLI plumbing
# --------------------------------------------------------------------------
class TestCliShards:
    def test_explicit_shards(self, capsys):
        from repro.cli import main

        assert main(["--shards", "2", "--patterns", "8", "--dims", "128",
                     "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "sharded across 2 machines" in out

    def test_bank_cap_overflow_errors_cleanly(self, capsys):
        from repro.cli import main

        assert main(["--banks", "1", "--patterns", "256", "--dims", "1024",
                     "--shards", "1", "--queries", "2"]) == 1
        err = capsys.readouterr().err
        assert "shard" in err

    def test_bank_cap_auto_shards(self, capsys):
        from repro.cli import main

        assert main(["--banks", "1", "--patterns", "256", "--dims", "1024",
                     "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "sharded across 2 machines" in out

    def test_dump_ir_overflow_errors_cleanly(self, capsys):
        from repro.cli import main

        assert main(["--banks", "1", "--patterns", "256", "--dims", "1024",
                     "--queries", "2", "--dump-ir", "cam"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "banks" in err

    def test_dump_ir_cam_prints_shard_modules(self, capsys):
        from repro.cli import main

        assert main(["--banks", "1", "--patterns", "256", "--dims", "1024",
                     "--queries", "2", "--dump-ir", "cam",
                     "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "// shard 0 (rows 0..127)" in out
        assert "// shard 1 (rows 128..255)" in out
        assert out.count("cam.write_value") >= 2

    def test_more_shards_than_patterns_errors_cleanly(self, capsys):
        from repro.cli import main

        assert main(["--patterns", "4", "--dims", "128", "--queries", "2",
                     "--shards", "8"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "cannot split" in err
