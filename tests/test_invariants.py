"""Cross-cutting invariants tying the compiler and simulator together."""

import numpy as np
import pytest

from repro.arch import dse_spec, paper_spec, validation_spec
from repro.baselines import run_manual_similarity
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.simulator import CamMachine


@pytest.fixture()
def hdc_inputs(rng):
    stored = rng.choice([-1.0, 1.0], (10, 1024)).astype(np.float32)
    queries = rng.choice([-1.0, 1.0], (2, 1024)).astype(np.float32)
    return stored, queries


def run(dot_kernel, stored, queries, spec, **compile_kw):
    kernel = C4CAMCompiler(spec).compile(
        dot_kernel(stored, k=1, largest=True),
        [placeholder(queries.shape)],
        **compile_kw,
    )
    outputs = kernel(queries)
    return outputs, kernel.last_report


class TestEnergyAccounting:
    def test_components_sum_to_total(self, dot_kernel, hdc_inputs):
        stored, queries = hdc_inputs
        _out, rep = run(dot_kernel, stored, queries, paper_spec())
        e = rep.energy
        assert e.query_total == pytest.approx(
            e.search + e.read + e.merge + e.host + e.standby
        )
        assert e.total == pytest.approx(e.query_total + e.write)

    def test_energy_scales_with_queries(self, dot_kernel, hdc_inputs, rng):
        stored, _ = hdc_inputs
        q4 = rng.choice([-1.0, 1.0], (4, 1024)).astype(np.float32)
        _o1, r1 = run(dot_kernel, stored, q4[:1], paper_spec())
        # Recompile for the 4-query signature.
        kernel = C4CAMCompiler(paper_spec()).compile(
            dot_kernel(stored, k=1, largest=True), [placeholder((4, 1024))]
        )
        kernel(q4)
        r4 = kernel.last_report
        assert r4.energy.search == pytest.approx(4 * r1.energy.search)
        assert r4.energy.write == pytest.approx(r1.energy.write)

    def test_write_energy_independent_of_target(self, dot_kernel, hdc_inputs):
        stored, queries = hdc_inputs
        _o1, base = run(dot_kernel, stored, queries, dse_spec(32, "latency"))
        _o2, power = run(dot_kernel, stored, queries, dse_spec(32, "power"))
        assert base.energy.write == pytest.approx(power.energy.write)

    def test_search_count_matches_plan(self, dot_kernel, hdc_inputs):
        from repro.transforms import compute_partition_plan

        stored, queries = hdc_inputs
        spec = dse_spec(64)
        plan = compute_partition_plan(10, 1024, 2, spec, False)
        _out, rep = run(dot_kernel, stored, queries, spec)
        assert rep.searches == plan.subarrays * len(queries)


class TestLatencyInvariants:
    def test_latency_independent_of_data(self, dot_kernel, rng):
        """Timing is data-independent (searches are constant-time)."""
        reports = []
        for seed in (1, 2):
            r = np.random.default_rng(seed)
            stored = r.choice([-1.0, 1.0], (10, 512)).astype(np.float32)
            queries = r.choice([-1.0, 1.0], (1, 512)).astype(np.float32)
            _out, rep = run(dot_kernel, stored, queries, paper_spec())
            reports.append(rep.query_latency_ns)
        assert reports[0] == pytest.approx(reports[1])

    def test_setup_scales_with_subarrays(self, dot_kernel, hdc_inputs):
        stored, queries = hdc_inputs
        _o1, small = run(dot_kernel, stored, queries, dse_spec(64))
        _o2, large = run(dot_kernel, stored, queries, dse_spec(16))
        assert large.setup_latency_ns > small.setup_latency_ns

    def test_noise_does_not_change_timing(self, dot_kernel, hdc_inputs):
        stored, queries = hdc_inputs
        _o1, clean = run(dot_kernel, stored, queries, paper_spec())
        _o2, noisy = run(
            dot_kernel, stored, queries, paper_spec(), noise_sigma=2.0
        )
        assert clean.query_latency_ns == pytest.approx(noisy.query_latency_ns)
        assert clean.energy.query_total == pytest.approx(
            noisy.energy.query_total
        )


class TestCompilerManualAgreement:
    @pytest.mark.parametrize("cols", [16, 64])
    @pytest.mark.parametrize("bits", [1, 2])
    def test_same_machine_shape(self, dot_kernel, hdc_inputs, cols, bits):
        """Compiler and manual mapping allocate identical hierarchies."""
        stored, queries = hdc_inputs
        spec = validation_spec(cols, bits_per_cell=bits)
        _out, compiled = run(dot_kernel, stored, queries, spec)
        manual = run_manual_similarity(
            stored, queries, spec, k=1, metric="dot", largest=True
        ).report
        assert compiled.subarrays_used == manual.subarrays_used
        assert compiled.banks_used == manual.banks_used
        assert compiled.searches == manual.searches

    def test_same_dynamic_energy_components(self, dot_kernel, hdc_inputs):
        """Search energy (pure device physics) agrees exactly; only the
        aggregation conventions differ (Fig. 7's small deviations)."""
        stored, queries = hdc_inputs
        spec = validation_spec(32)
        _out, compiled = run(dot_kernel, stored, queries, spec)
        manual = run_manual_similarity(
            stored, queries, spec, k=1, metric="dot", largest=True
        ).report
        assert compiled.energy.search == pytest.approx(manual.energy.search)
        assert compiled.energy.read == pytest.approx(manual.energy.read)


class TestMachineConsistency:
    def test_allocation_counts_consistent(self):
        spec = paper_spec()
        m = CamMachine(spec)
        for _ in range(2):
            bank = m.alloc_bank()
            for _ in range(2):
                mat = m.alloc_mat(bank)
                arr = m.alloc_array(mat)
                m.alloc_subarray(arr)
        assert m.banks_used == 2
        assert m.mats_used == 4
        assert m.arrays_used == 4
        assert m.subarrays_used == 4

    def test_area_additive(self):
        spec = paper_spec()
        m1 = CamMachine(spec)
        m1.alloc_subarray(m1.alloc_array(m1.alloc_mat(m1.alloc_bank())))
        single = m1.chip_area_mm2()
        m2 = CamMachine(spec)
        arr = m2.alloc_array(m2.alloc_mat(m2.alloc_bank()))
        m2.alloc_subarray(arr)
        m2.alloc_subarray(arr)
        assert m2.chip_area_mm2() > single

    def test_standby_duty_only_for_power_targets(self):
        for target, expected_duty in (("latency", 1.0), ("density", 1.0)):
            m = CamMachine(paper_spec(optimization_target=target))
            arr = m.alloc_array(m.alloc_mat(m.alloc_bank()))
            for _ in range(8):
                m.alloc_subarray(arr)
            assert m.standby_duty() == expected_duty


class TestMutationInvariants:
    """Invariants of the mutable-store layer (live insert/delete/update
    with tombstones, compaction and growth)."""

    FEATURES = 8

    @staticmethod
    def _spec(banks=None):
        """Analog cells so dot scores are true dot products (see
        test_mutation_differential)."""
        from dataclasses import replace

        spec = paper_spec(rows=8, cols=8, cam_type="acam")
        return spec if banks is None else replace(spec, banks=banks)

    def _kernel(self, stored, k=2, spec=None, **kw):
        return C4CAMCompiler(spec or self._spec()).compile(
            self._model(stored, k),
            [placeholder((1, self.FEATURES))],
            **kw,
        )

    def _model(self, stored, k):
        import repro.frontend.torch_api as torch

        class DotSimilarity(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(
                    np.asarray(stored, dtype=np.float32)
                )

            def forward(self, input):
                others = self.weight.transpose(-2, -1)
                matmul = torch.matmul(input, others)
                return torch.ops.aten.topk(matmul, k, largest=True)

        return DotSimilarity()

    def _machine_valid_rows(self, session):
        machine = session.machine
        return sum(
            machine.subarray(sub).valid_rows
            for sub in machine._subarrays
        )

    def test_valid_rows_conserved_across_compaction(self, rng):
        """Compaction moves rows, it never creates or destroys them:
        the machine-wide valid-bit count equals the live pattern count
        before and after (one column tile here, so 1 valid row ≡ 1
        pattern)."""
        stored = rng.standard_normal((12, self.FEATURES)).astype(np.float32)
        kernel = self._kernel(stored)
        session = kernel.session()
        assert self._machine_valid_rows(session) == 12
        kernel.delete([1, 4, 9])
        assert self._machine_valid_rows(session) == kernel.pattern_count == 9
        kernel.insert(
            rng.standard_normal((2, self.FEATURES)).astype(np.float32)
        )
        assert self._machine_valid_rows(session) == kernel.pattern_count == 11
        moved = kernel.compact()
        assert moved > 0
        assert self._machine_valid_rows(session) == kernel.pattern_count == 11
        assert kernel.compact() == 0, "second compaction must be a no-op"
        assert self._machine_valid_rows(session) == 11

    def test_no_bank_overlap_after_repack(self, rng):
        """After a growth-triggered defragmenting re-placement, placed
        tenants occupy disjoint bank ranges on every machine."""
        from repro.runtime.cluster import Cluster

        spec = self._spec(banks=4)
        stored = [
            rng.standard_normal((n, self.FEATURES)).astype(np.float32)
            for n in (10, 8, 8)
        ]
        cluster = Cluster(spec, max_machines=4)
        try:
            for i, data in enumerate(stored):
                cluster.admit(
                    self._kernel(data, spec=spec), tenant_id=f"t{i}"
                )
            defrags = cluster.defrag_count
            for _ in range(200):
                cluster.insert(
                    rng.standard_normal(self.FEATURES).astype(np.float32),
                    tenant="t0",
                )
                if cluster.defrag_count > defrags:
                    break
            assert cluster.defrag_count > defrags
            by_machine = {}
            for tenant in cluster._tenants.values():
                rec = tenant.lanes[0]
                by_machine.setdefault(rec.machine_index, []).append(
                    (rec.bank_offset, rec.bank_offset + rec.banks)
                )
            assert by_machine, "no placed tenants after re-pack"
            for machine_index, ranges in by_machine.items():
                ranges.sort()
                for (_, end), (start, _) in zip(ranges, ranges[1:]):
                    assert end <= start, (
                        f"bank overlap on machine {machine_index}: {ranges}"
                    )
        finally:
            cluster.shutdown()

    def test_tombstoned_rows_never_in_topk(self, rng):
        """A deleted row must vanish from results even when it would
        dominate the ranking: its match-line score may still exist
        physically, but the valid mask keeps it out of every top-k."""
        stored = rng.standard_normal((8, self.FEATURES)).astype(np.float32)
        kernel = self._kernel(stored, k=2)
        query = rng.standard_normal((1, self.FEATURES)).astype(np.float32)
        # A dominating pattern: its dot product beats every other row.
        dominator = (100.0 * query[0]).astype(np.float32)
        [gid] = kernel.insert(dominator)
        values, indices = kernel.run_batch(query)
        top_value = float(values[0, 0])
        assert int(indices[0, 0]) == kernel.pattern_count - 1
        kernel.delete([gid])
        values, indices = kernel.run_batch(query)
        assert float(values[0, 0]) < top_value, (
            "tombstoned dominator still surfaces in top-k"
        )
        assert np.all(indices < kernel.pattern_count)

    def test_single_row_mutation_cheaper_than_reprogram(self, rng):
        """Incremental programming: one insert/update/delete charges
        per-touched-row write energy, strictly less than re-programming
        the store from scratch."""
        stored = rng.standard_normal((12, self.FEATURES)).astype(np.float32)
        kernel = self._kernel(stored)
        session = kernel.session()
        full_energy = session.setup_energy_pj
        full_rows = session.rows_written
        assert full_rows >= 12
        for mutate in (
            lambda: kernel.insert(
                rng.standard_normal(self.FEATURES).astype(np.float32)
            ),
            lambda: kernel.update(
                0, rng.standard_normal(self.FEATURES).astype(np.float32)
            ),
            lambda: kernel.delete([kernel.row_ids()[-1]]),
        ):
            energy_before = session.setup_energy_pj
            rows_before = session.rows_written
            mutate()
            delta_energy = session.setup_energy_pj - energy_before
            delta_rows = session.rows_written - rows_before
            assert 0 < delta_rows < full_rows
            assert 0 < delta_energy < full_energy
