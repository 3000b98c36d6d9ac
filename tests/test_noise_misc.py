"""Noise modeling, traversal helpers and miscellaneous coverage."""

import numpy as np
import pytest

from repro.arch import paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.ir import count, first, parent_of_type, walk
from repro.simulator import CamMachine


class TestSensingNoise:
    def _machine(self, sigma, seed=0):
        m = CamMachine(paper_spec(), noise_sigma=sigma, noise_seed=seed)
        s = m.alloc_subarray(m.alloc_array(m.alloc_mat(m.alloc_bank())))
        m.write_value(s, np.zeros((4, 32)))
        return m, s

    def test_zero_noise_exact(self):
        m, s = self._machine(0.0)
        m.search(s, np.ones(32), metric="hamming")
        vals, _i, _d = m.read(s, 4)
        assert vals.tolist() == [32.0] * 4

    def test_noise_perturbs_scores(self):
        m, s = self._machine(1.0)
        m.search(s, np.ones(32), metric="hamming")
        vals, _i, _d = m.read(s, 4)
        assert not np.allclose(vals, 32.0)

    def test_noise_reproducible_by_seed(self):
        readings = []
        for _ in range(2):
            m, s = self._machine(1.0, seed=42)
            m.search(s, np.ones(32), metric="hamming")
            readings.append(m.read(s, 4)[0])
        np.testing.assert_array_equal(readings[0], readings[1])

    def test_noise_scale_with_sigma(self):
        spreads = []
        for sigma in (0.5, 4.0):
            m, s = self._machine(sigma, seed=1)
            m.search(s, np.ones(32), metric="hamming")
            vals, _i, _d = m.read(s, 4)
            spreads.append(np.abs(vals - 32.0).mean())
        assert spreads[1] > spreads[0]

    def test_compiled_kernel_noise_degrades_accuracy(self, dot_kernel, rng):
        p, d, q = 8, 256, 32
        stored = rng.choice([-1.0, 1.0], (p, d)).astype(np.float32)
        queries = (
            stored[rng.integers(0, p, q)]
            * rng.choice([1.0, -1.0], (q, d), p=[0.7, 0.3])
        ).astype(np.float32)
        truth = (queries @ stored.T).argmax(axis=1)
        compiler = C4CAMCompiler(paper_spec())
        accs = []
        for sigma in (0.0, 12.0):
            kernel = compiler.compile(
                dot_kernel(stored, k=1, largest=True),
                [placeholder((q, d))],
                noise_sigma=sigma, noise_seed=3,
            )
            _v, idx = kernel(queries)
            accs.append((idx.ravel() == truth).mean())
        assert accs[0] == 1.0
        assert accs[1] < accs[0]


class TestTraversal:
    def _module(self, dot_kernel, rng):
        from repro.frontend import import_graph, trace

        stored = rng.choice([-1.0, 1.0], (4, 32)).astype(np.float32)
        return import_graph(
            trace(dot_kernel(stored), [placeholder((1, 32))])
        ).module

    def test_walk_by_name(self, dot_kernel, rng):
        m = self._module(dot_kernel, rng)
        assert len(list(walk(m, name="torch.aten.mm"))) == 1

    def test_walk_by_class(self, dot_kernel, rng):
        from repro.dialects.func import FuncOp

        m = self._module(dot_kernel, rng)
        assert len(list(walk(m, op_class=FuncOp))) == 1

    def test_first_and_count(self, dot_kernel, rng):
        m = self._module(dot_kernel, rng)
        assert first(m, name="nothing.here") is None
        assert count(m, name="torch.aten.topk") == 1

    def test_parent_of_type(self, dot_kernel, rng):
        from repro.dialects.func import FuncOp
        from repro.ir.module import ModuleOp

        m = self._module(dot_kernel, rng)
        mm = first(m, name="torch.aten.mm")
        assert isinstance(parent_of_type(mm, FuncOp), FuncOp)
        assert isinstance(parent_of_type(mm, ModuleOp), ModuleOp)
        assert parent_of_type(m, ModuleOp) is None


class TestHostExecutionPaths:
    def test_fused_cim_ir_runs_on_host(self, dot_kernel, rng):
        """The partially lowered (cim-level) module is executable."""
        from repro.frontend import import_graph, trace
        from repro.passes.pass_manager import PassManager
        from repro.runtime.executor import Interpreter
        from repro.transforms import (
            CimFuseOpsPass,
            SimilarityMatchingPass,
            TorchToCimPass,
        )

        stored = rng.choice([-1.0, 1.0], (6, 64)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (3, 64)).astype(np.float32)
        m = import_graph(
            trace(dot_kernel(stored, k=2, largest=True), [placeholder((3, 64))])
        ).module
        PassManager(
            [TorchToCimPass(), CimFuseOpsPass(), SimilarityMatchingPass()]
        ).run(m)
        out, _ = Interpreter(m).run_function("forward", [queries, stored])
        # Stable: tied scores rank by row index, like the kernel's top-k.
        expected = np.argsort(
            -(queries @ stored.T), axis=1, kind="stable"
        )[:, :2]
        np.testing.assert_array_equal(out[1], expected)

    def test_cosine_score_host_path(self, rng):
        import repro.frontend.torch_api as torch
        from repro.frontend import import_graph, trace
        from repro.passes.pass_manager import PassManager
        from repro.runtime.executor import Interpreter
        from repro.transforms import (
            CimFuseOpsPass,
            SimilarityMatchingPass,
            TorchToCimPass,
        )

        w = rng.standard_normal((5, 32)).astype(np.float32)

        class M(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(w)

            def forward(self, x):
                qn = torch.norm(x, p=2, dim=-1, keepdim=True)
                sn = torch.norm(self.weight, p=2, dim=-1)
                others = self.weight.transpose(-2, -1)
                dots = torch.matmul(x, others)
                return torch.div(dots, sn, qn)

        q = rng.standard_normal((2, 32)).astype(np.float32)
        m = import_graph(trace(M(), [placeholder((2, 32))])).module
        PassManager(
            [TorchToCimPass(), CimFuseOpsPass(), SimilarityMatchingPass()]
        ).run(m)
        out, _ = Interpreter(m).run_function("forward", [q, w])
        expected = (q @ w.T) / np.linalg.norm(w, axis=1) \
            / np.linalg.norm(q, axis=1, keepdims=True)
        np.testing.assert_allclose(out[0], expected, rtol=1e-4)


class TestReportScaling:
    def test_scaled_preserves_power(self, dot_kernel, rng):
        stored = rng.choice([-1.0, 1.0], (4, 64)).astype(np.float32)
        kernel = C4CAMCompiler(paper_spec()).compile(
            dot_kernel(stored), [placeholder((1, 64))]
        )
        kernel(stored[:1])
        rep = kernel.last_report
        big = rep.scaled(1000)
        assert big.power_mw == pytest.approx(rep.power_mw)
        assert big.edp == pytest.approx(rep.edp * 1000 * 1000)
