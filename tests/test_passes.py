"""Pass manager tests, and the rewriting the pipeline's passes do."""

import numpy as np
import pytest

import repro.frontend.torch_api as torch
from repro.arch import paper_spec
from repro.compiler import C4CAMCompiler
from repro.dialects import arith as arith_d
from repro.dialects import cim as cim_d
from repro.dialects import func as func_d
from repro.frontend import import_graph, placeholder, trace
from repro.ir import count, print_module
from repro.ir.builder import OpBuilder
from repro.ir.module import ModuleOp
from repro.ir.types import FunctionType
from repro.passes.pass_manager import (
    FunctionPass,
    LambdaPass,
    Pass,
    PassError,
    PassManager,
)
from repro.passes.pipeline import build_pipeline_from_spec
from repro.transforms import CimFuseOpsPass, SimilarityMatchingPass


def make_module():
    m = ModuleOp()
    f = func_d.FuncOp("p", FunctionType([], []))
    m.append(f)
    b = OpBuilder.at_end(f.body)
    c1 = b.create(arith_d.ConstantOp, 1)
    c2 = b.create(arith_d.ConstantOp, 2)
    b.create(arith_d.AddIOp, c1.result, c2.result)
    b.create(func_d.ReturnOp, [])
    return m, f


class TestPassManager:
    def test_runs_in_order(self):
        order = []
        pm = PassManager([
            LambdaPass(lambda m: order.append("a"), "a"),
            LambdaPass(lambda m: order.append("b"), "b"),
        ])
        pm.run(ModuleOp())
        assert order == ["a", "b"]

    def test_statistics_collected(self):
        pm = PassManager([LambdaPass(lambda m: None, "noop")])
        pm.run(ModuleOp())
        assert pm.statistics[0]["pass"] == "noop"
        assert pm.statistics[0]["seconds"] >= 0

    def test_failure_wrapped(self):
        def boom(m):
            raise ValueError("boom")

        pm = PassManager([LambdaPass(boom, "boom")])
        with pytest.raises(PassError, match="boom"):
            pm.run(ModuleOp())

    def test_verify_each_catches_broken_ir(self):
        def breaker(module):
            f = next(module.functions())
            # Create a dangling use: operand defined nowhere.
            orphan = arith_d.ConstantOp(1)
            f.body.insert_before(
                f.body.operations[-1], arith_d.AddIOp(orphan.result, orphan.result)
            )

        m, _f = make_module()
        pm = PassManager([LambdaPass(breaker, "breaker")])
        with pytest.raises(PassError, match="verification failed"):
            pm.run(m)

    def test_verify_each_off(self):
        m, _f = make_module()
        pm = PassManager([LambdaPass(lambda m: None)], verify_each=False)
        pm.run(m)  # should not raise

    def test_function_pass_visits_each_function(self):
        seen = []

        class P(FunctionPass):
            def run_on_function(self, func):
                seen.append(func.sym_name)

        m = ModuleOp()
        m.append(func_d.FuncOp("a", FunctionType([], [])))
        m.append(func_d.FuncOp("b", FunctionType([], [])))
        PassManager([P()], verify_each=False).run(m)
        assert seen == ["a", "b"]

    def test_describe(self):
        pm = PassManager([LambdaPass(lambda m: None, "x")])
        assert pm.describe() == "x"

    def test_base_pass_abstract(self):
        with pytest.raises(NotImplementedError):
            Pass().run(ModuleOp())


def fused(fn, inputs, spec="torch-to-cim,cim-fuse-ops"):
    m = import_graph(trace(fn, inputs)).module
    build_pipeline_from_spec(spec).run(m)
    return m


def norm_of_difference(a, b):
    return torch.norm(a - b, p=2, dim=-1)


def execute_bodies(m):
    return [
        [op.name for op in execute.body.operations]
        for execute in m.walk() if isinstance(execute, cim_d.ExecuteOp)
    ]


class TestGreedyRewriter:
    """The pipeline's pattern rewriting: ``cim-fuse-ops`` fuses blocks
    to a fixed point and ``cim-similarity-match`` rewrites each matched
    block once."""

    def test_fold_applies(self):
        inputs = [placeholder((5, 8)), placeholder((5, 8))]
        m = fused(norm_of_difference, inputs, spec="torch-to-cim")
        assert count(m, name="cim.execute") == 2
        PassManager([CimFuseOpsPass()]).run(m)
        assert execute_bodies(m) == [["cim.sub", "cim.norm", "cim.yield"]]

    def test_fixed_point_reached(self, dot_kernel, rng):
        stored = rng.choice([-1.0, 1.0], (4, 16)).astype(np.float32)
        m = fused(dot_kernel(stored), [placeholder((2, 16))],
                  spec="torch-to-cim,cim-fuse-ops,cim-similarity-match")
        text = print_module(m)
        PassManager([CimFuseOpsPass(), SimilarityMatchingPass()]).run(m)
        assert print_module(m) == text


class TestDeadOpElimination:
    """Ops the passes erase once nothing uses them."""

    def test_erases_unused_pure_ops(self):
        """Fusion erases the producer block's device acquire/release."""
        m = fused(norm_of_difference, [placeholder((5, 8)), placeholder((5, 8))])
        assert count(m, name="cim.acquire") == count(m, name="cim.release") == 1

    def test_keeps_used_ops(self):
        """A block the matcher does not match keeps every op."""

        def fn(x, w):
            return torch.matmul(x, w.transpose(-2, -1))

        m = fused(fn, [placeholder((3, 8)), placeholder((6, 8))],
                  spec="torch-to-cim,cim-fuse-ops,cim-similarity-match")
        assert execute_bodies(m) == [
            ["cim.transpose", "cim.matmul", "cim.yield"]
        ]

    def test_cascading_erasure(self, dot_kernel, rng):
        """Once ``cim.similarity`` replaces the top-k, the matmul and then
        the transpose lose their last use and go too."""
        stored = rng.choice([-1.0, 1.0], (4, 16)).astype(np.float32)
        m = fused(dot_kernel(stored), [placeholder((2, 16))],
                  spec="torch-to-cim,cim-fuse-ops,cim-similarity-match")
        assert execute_bodies(m) == [["cim.similarity", "cim.yield"]]

    def test_sweeps_unused_torch_ops(self):
        """A traced op whose result nothing uses becomes no block of its
        own: one ``cim.execute`` is left, and the compiled kernel still
        answers as the torch-level reference."""

        def forward(x):
            _unused = x.transpose(-2, -1)
            return x.transpose(-2, -1).transpose(-2, -1)

        example = [placeholder((3, 5))]
        m = fused(forward, example,
                  spec="torch-to-cim,cim-fuse-ops,cim-similarity-match")
        assert count(m, name="cim.execute") == 1
        compiler = C4CAMCompiler(paper_spec())
        x = np.arange(15, dtype=np.float32).reshape(3, 5)
        got = compiler.compile(forward, example)(x)
        want = compiler.reference(forward, example)(x)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
