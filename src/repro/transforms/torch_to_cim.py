"""``torch-to-cim`` conversion (paper §III-D, Fig. 5a).

Lowers each supported torch operation into its own
``cim.acquire`` / ``cim.execute`` / ``cim.release`` triple — "the
fundamental assumption of the torch-to-cim conversion is that each
supported operation can be executed on a separate (non-)CIM device".
The fusion pass subsequently merges compatible execute blocks.
"""

from __future__ import annotations

from typing import List

from repro.dialects import cim as cim_d
from repro.ir.builder import OpBuilder
from repro.ir.operation import Operation
from repro.ir.value import Value
from repro.passes.pass_manager import FunctionPass


class TorchToCimPass(FunctionPass):
    """Convert torch-dialect compute ops into single-op cim.execute blocks."""

    NAME = "torch-to-cim"

    def run_on_function(self, func: Operation) -> None:
        # A traced op nothing uses would otherwise become a block of its
        # own, run on every call.  Sweeping in reverse order erases an
        # op's users before the op itself is visited.
        for op in reversed(list(func.body.operations)):
            if op.dialect == "torch" and not any(r.has_uses for r in op.results):
                op.erase()
        for op in list(func.body.operations):
            if op.name in _CONVERTERS:
                _convert(op)


def _convert(op: Operation) -> None:
    """Wrap one torch op into acquire/execute/release."""
    builder = OpBuilder.before(op)
    # Tensor operands feed the execute region through block arguments;
    # scalar operands (e.g. the topk k constant) are forwarded as well so
    # the body stays self-contained.
    operands = list(op.operands)
    acquire = builder.create(cim_d.AcquireOp)
    execute = builder.create(
        cim_d.ExecuteOp,
        acquire.result,
        operands,
        [r.type for r in op.results],
    )
    body_builder = OpBuilder.at_end(execute.body)
    inner_results = _CONVERTERS[op.name](body_builder, op, execute.body.arguments)
    body_builder.create(cim_d.YieldOp, inner_results)
    builder.create(cim_d.ReleaseOp, acquire.result)
    op.replace_with(list(execute.results))


def _cvt_transpose(b: OpBuilder, op: Operation, args: List[Value]):
    new = b.create(
        cim_d.TransposeOp, args[0],
        op.attributes["dim0"].value, op.attributes["dim1"].value,
    )
    return [new.result]


def _cvt_matmul(b: OpBuilder, op: Operation, args: List[Value]):
    return [b.create(cim_d.MatmulOp, args[0], args[1]).result]


def _cvt_sub(b: OpBuilder, op: Operation, args: List[Value]):
    return [b.create(cim_d.SubOp, args[0], args[1]).result]


def _cvt_div(b: OpBuilder, op: Operation, args: List[Value]):
    extra = args[2] if len(args) > 2 else None
    return [b.create(cim_d.DivOp, args[0], args[1], extra).result]


def _cvt_norm(b: OpBuilder, op: Operation, args: List[Value]):
    new = b.create(
        cim_d.NormOp, args[0],
        p=op.attributes["p"].value,
        dim=op.attributes["dim"].value,
        keepdim=op.attributes["keepdim"].value,
    )
    return [new.result]


def _cvt_topk(b: OpBuilder, op: Operation, args: List[Value]):
    new = b.create(
        cim_d.TopkOp, args[0], args[1],
        k_static=op.attributes["k"].value,
        largest=op.attributes["largest"].value,
    )
    return list(new.results)


_CONVERTERS = {
    "torch.aten.transpose.int": _cvt_transpose,
    "torch.aten.mm": _cvt_matmul,
    "torch.aten.matmul": _cvt_matmul,
    "torch.aten.sub": _cvt_sub,
    "torch.aten.div": _cvt_div,
    "torch.aten.norm": _cvt_norm,
    "torch.aten.topk": _cvt_topk,
}
