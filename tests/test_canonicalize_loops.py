"""What the pipeline leaves of a kernel, and how the host runs the rest.

The pipeline has no canonicalize or CSE pass and no loop lowering for
the host.  ``cim-fuse-ops`` and ``cim-similarity-match`` are its only
IR clean-ups, a similarity block lowers to the CAM, and any other block
stays a ``cim.execute`` that the interpreter's ``cim.*`` handlers run.
The class names are those of the canonicalize, CSE and cim-to-loops
checks these tests replaced.
"""

import numpy as np
import pytest

import repro.frontend.torch_api as torch
from repro.arch import paper_spec
from repro.dialects import arith as arith_d
from repro.dialects import cim as cim_d
from repro.dialects import func as func_d
from repro.frontend import import_graph, placeholder, trace
from repro.ir import ModuleOp, OpBuilder, count, print_module, verify
from repro.ir.types import FunctionType, index
from repro.passes.pipeline import build_pipeline_from_spec
from repro.runtime.executor import Interpreter

#: The five passes every ``compile`` runs, in order.
FULL = "torch-to-cim,cim-fuse-ops,cim-similarity-match,cim-partition,cim-to-cam"
FUSE = "torch-to-cim,cim-fuse-ops"


def lower(fn, inputs, spec=FULL):
    m = import_graph(trace(fn, inputs)).module
    build_pipeline_from_spec(spec, paper_spec()).run(m)
    verify(m)
    return m


def run(m, *args):
    out, _ = Interpreter(m).run_function("forward", list(args))
    return out


def execute_body(m):
    (execute,) = [op for op in m.walk() if isinstance(op, cim_d.ExecuteOp)]
    return [op.name for op in execute.body.operations]


def arith_module(build):
    """A one-function module returning the index ``build(builder)``
    leaves as its last result."""
    m = ModuleOp()
    f = func_d.FuncOp("forward", FunctionType([], [index]))
    m.append(f)
    b = OpBuilder.at_end(f.body)
    b.create(func_d.ReturnOp, [build(b).result])
    verify(m)
    return m


class TestCanonicalize:
    def test_double_transpose_folds(self, rng):
        """Both transposes fold into one block on one device; the host
        runs it back to the input."""

        def fn(x):
            return x.transpose(-2, -1).transpose(-2, -1)

        m = lower(fn, [placeholder((4, 8))])
        assert count(m, name="cim.execute") == count(m, name="cim.acquire") == 1
        x = rng.standard_normal((4, 8)).astype(np.float32)
        np.testing.assert_array_equal(run(m, x)[0], x)

    def test_mismatched_dims_not_folded(self, rng):
        def fn(x):
            return x.transpose(0, 1).transpose(0, 2)

        m = lower(fn, [placeholder((2, 3, 4))])
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        np.testing.assert_array_equal(
            run(m, x)[0], x.transpose(1, 0, 2).transpose(2, 1, 0)
        )

    def test_constant_arith_folds(self):
        def build(b):
            c2 = b.create(arith_d.ConstantOp, 2)
            c3 = b.create(arith_d.ConstantOp, 3)
            add = b.create(arith_d.AddIOp, c2.result, c3.result)
            return b.create(arith_d.MulIOp, add.result, c3.result)

        assert run(arith_module(build)) == [15]

    def test_division_by_zero_not_folded(self):
        """The IR is valid; the division fails only when it runs."""

        def build(b):
            c1 = b.create(arith_d.ConstantOp, 1)
            c0 = b.create(arith_d.ConstantOp, 0)
            return b.create(arith_d.DivSIOp, c1.result, c0.result)

        m = arith_module(build)
        with pytest.raises(ZeroDivisionError):
            run(m)

    def test_dead_ops_swept(self, rng):
        """The cosine pattern's five ops go once ``cim.score`` replaces
        them; the host still computes cosine similarity."""
        w = rng.standard_normal((5, 32)).astype(np.float32)

        class Cosine(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(w)

            def forward(self, x):
                qn = torch.norm(x, p=2, dim=-1, keepdim=True)
                sn = torch.norm(self.weight, p=2, dim=-1)
                dots = torch.matmul(x, self.weight.transpose(-2, -1))
                return torch.div(dots, sn, qn)

        m = lower(Cosine(), [placeholder((2, 32))],
                  spec=FUSE + ",cim-similarity-match")
        assert execute_body(m) == ["cim.score", "cim.yield"]
        q = rng.standard_normal((2, 32)).astype(np.float32)
        expected = (q @ w.T) / np.linalg.norm(w, axis=1) \
            / np.linalg.norm(q, axis=1, keepdims=True)
        np.testing.assert_allclose(run(m, q, w)[0], expected, rtol=1e-4)


class TestCSE:
    def test_duplicate_constants_merged(self):
        """A value both fused blocks read enters the fused block once."""

        def fn(a, b):
            return (a - b) / b

        m = lower(fn, [placeholder((4, 6)), placeholder((1, 6))], spec=FUSE)
        (execute,) = [op for op in m.walk() if isinstance(op, cim_d.ExecuteOp)]
        func = next(m.functions())
        assert list(execute.inputs) == list(func.arguments)

    def test_different_attrs_not_merged(self):
        """Blocks with no dataflow between them stay apart."""

        def fn(a, b):
            return a.transpose(-2, -1), b.transpose(-2, -1)

        m = lower(fn, [placeholder((2, 3)), placeholder((4, 5))], spec=FUSE)
        assert count(m, name="cim.execute") == 2

    def test_side_effecting_ops_kept(self, rng):
        """A block whose result has two users is fused into neither:
        fusing it would run it twice."""

        def fn(a, b):
            d = a - b
            return torch.norm(d, p=2, dim=-1), d / b

        m = lower(fn, [placeholder((4, 6)), placeholder((1, 6))])
        assert count(m, name="cim.execute") == 3
        assert count(m, name="cim.sub") == 1
        a = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal((1, 6)).astype(np.float32) + 2.0
        norm, ratio = run(m, a, b)
        np.testing.assert_allclose(norm, np.linalg.norm(a - b, axis=-1),
                                   rtol=1e-5)
        np.testing.assert_allclose(ratio, (a - b) / b, rtol=1e-5)

    def test_identical_pure_ops_merged(self, rng):
        """A diamond of blocks that all feed one matmul merges into one
        block on one device."""

        def fn(x):
            a = x.transpose(-2, -1)
            b_ = x.transpose(-2, -1)
            return torch.matmul(a.transpose(-2, -1), b_)

        m = lower(fn, [placeholder((4, 4))])
        assert count(m, name="cim.execute") == count(m, name="cim.acquire") == 1
        x = rng.standard_normal((4, 4)).astype(np.float32)
        np.testing.assert_allclose(run(m, x)[0], x @ x.T, rtol=1e-5)


class TestCimToLoops:
    def test_no_cim_ops_remain(self, dot_kernel, rng):
        """A similarity kernel lowers to the CAM whole."""
        stored = rng.choice([-1.0, 1.0], (4, 16)).astype(np.float32)
        m = lower(dot_kernel(stored), [placeholder((2, 16))])
        assert "cim." not in print_module(m)
        assert count(m, name="cam.search") == 1

    def test_norm_of_difference(self, rng):
        def fn(a, b):
            return torch.norm(a - b, p=2, dim=-1)

        m = lower(fn, [placeholder((5, 8)), placeholder((5, 8))])
        assert execute_body(m) == ["cim.sub", "cim.norm", "cim.yield"]
        a = rng.standard_normal((5, 8)).astype(np.float32)
        b = rng.standard_normal((5, 8)).astype(np.float32)
        np.testing.assert_allclose(
            run(m, a, b)[0], np.sqrt(((a - b) ** 2).sum(-1)), rtol=1e-5
        )

    def test_matmul_transpose(self, rng):
        """Without a top-k the matcher leaves the block to the host."""

        def fn(x, w):
            return torch.matmul(x, w.transpose(-2, -1))

        m = lower(fn, [placeholder((3, 8)), placeholder((6, 8))])
        assert execute_body(m) == ["cim.transpose", "cim.matmul", "cim.yield"]
        x = rng.standard_normal((3, 8)).astype(np.float32)
        w = rng.standard_normal((6, 8)).astype(np.float32)
        np.testing.assert_allclose(run(m, x, w)[0], x @ w.T, rtol=1e-5)

    def test_broadcast_sub_div(self, rng):
        def fn(a, b):
            return (a - b) / b

        m = lower(fn, [placeholder((4, 6)), placeholder((1, 6))])
        a = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal((1, 6)).astype(np.float32) + 2.0
        np.testing.assert_allclose(run(m, a, b)[0], (a - b) / b, rtol=1e-5)

    def test_similarity_blocks_left_alone(self, dot_kernel, rng):
        """Fusion leaves the similarity block whole for the matcher."""
        stored = rng.choice([-1.0, 1.0], (4, 16)).astype(np.float32)
        m = lower(dot_kernel(stored), [placeholder((2, 16))], spec=FUSE)
        assert execute_body(m) == [
            "cim.transpose", "cim.matmul", "cim.topk", "cim.yield",
        ]

    def test_loops_structure(self, dot_kernel, rng):
        """The CAM lowering nests one ``scf.for`` per hierarchy level to
        allocate, and searches every subarray in parallel per query."""
        stored = rng.choice([-1.0, 1.0], (4, 16)).astype(np.float32)
        m = lower(dot_kernel(stored), [placeholder((2, 16))])

        def loops(op, name):
            depth = 0
            while (op := op.parent_op) is not None:
                depth += op.name == name
            return depth

        levels = ["bank", "mat", "array", "subarray"]
        for depth, level in enumerate(levels, start=1):
            (alloc,) = [
                op for op in m.walk() if op.name == f"cam.alloc_{level}"
            ]
            assert loops(alloc, "scf.for") == depth, level
        (search,) = [op for op in m.walk() if op.name == "cam.search"]
        assert loops(search, "scf.parallel") == len(levels)
        assert loops(search, "scf.for") == 1
