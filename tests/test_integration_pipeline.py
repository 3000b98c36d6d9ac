"""Integration tests: the IR at every stage matches the paper's figures.

Walks one kernel through the full pipeline, checking the structural
properties the paper illustrates (Fig. 4b, 5a-d, 6) and that intermediate
stages stay executable.
"""

import numpy as np
import pytest

import repro.frontend.torch_api as torch
from repro.arch import dse_spec, paper_spec
from repro.dialects import scf as scf_d
from repro.frontend import import_graph, placeholder, trace
from repro.ir import count, first, print_module, verify, walk
from repro.passes.pass_manager import PassManager
from repro.runtime.executor import Interpreter
from repro.transforms import (
    CimFuseOpsPass,
    CimPartitionPass,
    CimToCamPass,
    SimilarityMatchingPass,
    TorchToCimPass,
    plan_of,
    resolve_optimization,
)


@pytest.fixture()
def kernel_module(rng):
    stored = rng.choice([-1.0, 1.0], (10, 256)).astype(np.float32)

    class HdcSim(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, input):
            others = self.weight.transpose(-2, -1)
            matmul = torch.matmul(input, others)
            values, indices = torch.ops.aten.topk(matmul, 1, largest=True)
            return values, indices

    queries = rng.choice([-1.0, 1.0], (2, 256)).astype(np.float32)
    module = import_graph(trace(HdcSim(), [placeholder((2, 256))])).module
    return module, stored, queries


def expected(stored, queries):
    return (queries @ stored.T).argmax(axis=1)


class TestStageByStage:
    def test_stage0_torch_ir(self, kernel_module):
        """Fig. 4b: transpose + mm + constant + topk."""
        m, stored, queries = kernel_module
        names = [op.name for op in next(m.functions()).body.operations]
        assert names == [
            "torch.aten.transpose.int", "torch.aten.mm",
            "torch.constant.int", "torch.aten.topk", "func.return",
        ]
        out, _ = Interpreter(m).run_function("forward", [queries, stored])
        np.testing.assert_array_equal(out[1].ravel(), expected(stored, queries))

    def test_stage1_torch_to_cim(self, kernel_module):
        """Fig. 5a: one acquire/execute/release triple per op."""
        m, stored, queries = kernel_module
        PassManager([TorchToCimPass()]).run(m)
        assert count(m, name="cim.execute") == 3
        # Still executable on the host.
        out, _ = Interpreter(m).run_function("forward", [queries, stored])
        np.testing.assert_array_equal(out[1].ravel(), expected(stored, queries))

    def test_stage2_fusion(self, kernel_module):
        """Fig. 5b: one fused execute containing the whole dataflow."""
        m, stored, queries = kernel_module
        PassManager([TorchToCimPass(), CimFuseOpsPass()]).run(m)
        assert count(m, name="cim.execute") == 1
        ex = first(m, name="cim.execute")
        assert len(ex.body.operations) == 4  # 3 compute + yield
        out, _ = Interpreter(m).run_function("forward", [queries, stored])
        np.testing.assert_array_equal(out[1].ravel(), expected(stored, queries))

    def test_stage3_similarity(self, kernel_module):
        """Fig. 5c: the body collapses to one cim.similarity."""
        m, stored, queries = kernel_module
        PassManager(
            [TorchToCimPass(), CimFuseOpsPass(), SimilarityMatchingPass()]
        ).run(m)
        ex = first(m, name="cim.execute")
        assert [op.name for op in ex.body.operations] == [
            "cim.similarity", "cim.yield",
        ]
        out, _ = Interpreter(m).run_function("forward", [queries, stored])
        np.testing.assert_array_equal(out[1].ravel(), expected(stored, queries))

    def test_stage4_partition_plan(self, kernel_module):
        """Fig. 5d analogue: the plan tiles 256 features into 32-wide
        column slices."""
        m, _stored, _queries = kernel_module
        spec = paper_spec(rows=32, cols=32)
        PassManager(
            [TorchToCimPass(), CimFuseOpsPass(), SimilarityMatchingPass(),
             CimPartitionPass(spec)]
        ).run(m)
        sim = first(m, name="cim.similarity")
        plan = plan_of(sim)
        assert plan.col_tiles == 8 and plan.row_tiles == 1
        assert plan.subarrays == 8

    def test_stage5_cam_nest(self, kernel_module):
        """Fig. 6: nested loops with allocs at each level + device calls."""
        m, stored, queries = kernel_module
        spec = paper_spec(rows=32, cols=32)
        PassManager(
            [TorchToCimPass(), CimFuseOpsPass(), SimilarityMatchingPass(),
             CimPartitionPass(spec), CimToCamPass(spec)]
        ).run(m)
        verify(m)
        text = print_module(m)
        for marker in (
            "cam.alloc_bank", "cam.alloc_mat", "cam.alloc_array",
            "cam.alloc_subarray", "cam.write_value", "cam.search",
            "cam.read", "cam.merge_partial", "scf.parallel",
        ):
            assert marker in text, marker
        # Alloc ops sit inside the loop nest, like Fig. 6.
        alloc = first(m, name="cam.alloc_subarray")
        depth = 0
        parent = alloc.parent_op
        while parent is not None:
            if isinstance(parent, (scf_d.ForOp, scf_d.ParallelOp)):
                depth += 1
            parent = parent.parent_op
        assert depth == 4  # bank, mat, array, subarray loops

    def test_stage6_execution(self, kernel_module):
        m, stored, queries = kernel_module
        spec = paper_spec(rows=32, cols=32)
        PassManager(
            [TorchToCimPass(), CimFuseOpsPass(), SimilarityMatchingPass(),
             CimPartitionPass(spec), CimToCamPass(spec)]
        ).run(m)
        from repro.simulator import CamMachine

        machine = CamMachine(spec)
        out, report = Interpreter(m, machine).run_function(
            "forward", [queries, stored]
        )
        np.testing.assert_array_equal(out[1].ravel(), expected(stored, queries))
        assert report.queries == 2
        assert report.subarrays_used == 8


class TestStructuralConfigDifferences:
    def lower(self, rng, target, n=32, d=512):
        stored = rng.choice([-1.0, 1.0], (10, d)).astype(np.float32)

        class M(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(stored)

            def forward(self, x):
                o = self.weight.transpose(-2, -1)
                return torch.ops.aten.topk(torch.matmul(x, o), 1, largest=True)

        m = import_graph(trace(M(), [placeholder((1, d))])).module
        spec = dse_spec(n, target)
        config = resolve_optimization(spec)
        PassManager(
            [TorchToCimPass(), CimFuseOpsPass(), SimilarityMatchingPass(),
             CimPartitionPass(spec, config.use_density),
             CimToCamPass(spec, config)]
        ).run(m)
        return m

    def test_power_swaps_parallel_for_sequential(self, rng):
        base = self.lower(rng, "latency")
        power = self.lower(rng, "power")
        # Same total loops, different kinds.
        total = lambda m: count(m, name="scf.for") + count(m, name="scf.parallel")
        assert total(base) == total(power)
        assert count(power, name="scf.for") > count(base, name="scf.for")

    def test_density_unrolls_batches(self, rng):
        base = self.lower(rng, "latency", n=64)
        dens = self.lower(rng, "density", n=64)
        assert count(dens, name="cam.search") > count(base, name="cam.search")
        searches = list(walk(dens, name="cam.search"))
        row_begins = {op.row_begin for op in searches}
        assert len(row_begins) > 1  # distinct selective-search windows

    def test_ir_round_trips_after_lowering(self, rng):
        """The lowered module survives a deep copy: the clone verifies
        and prints byte for byte like the original."""
        m = self.lower(rng, "latency")
        text = print_module(m)
        copy = m.clone()
        verify(copy)
        assert print_module(copy) == text


class TestMultiKernelModules:
    def test_two_functions_compile_independently(self, rng):
        """A module with two similarity kernels lowers both."""
        from repro.ir.module import ModuleOp

        stored = rng.choice([-1.0, 1.0], (8, 64)).astype(np.float32)

        class M(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(stored)

            def forward(self, x):
                o = self.weight.transpose(-2, -1)
                return torch.ops.aten.topk(torch.matmul(x, o), 1, largest=True)

        m1 = import_graph(trace(M(), [placeholder((1, 64))]), name="a").module
        m2 = import_graph(trace(M(), [placeholder((1, 64))]), name="b").module
        combined = ModuleOp()
        for src in (m1, m2):
            fn = next(src.functions())
            fn.parent_block._remove(fn)
            combined.append(fn)
        spec = paper_spec()
        config = resolve_optimization(spec)
        PassManager(
            [TorchToCimPass(), CimFuseOpsPass(), SimilarityMatchingPass(),
             CimPartitionPass(spec), CimToCamPass(spec, config)]
        ).run(combined)
        assert count(combined, name="cam.search") >= 2
        assert combined.lookup_symbol("a") is not None
        assert combined.lookup_symbol("b") is not None
