"""``torch`` dialect: the ATen subset the frontend emits.

Mirrors the entry point of the paper's pipeline (Fig. 4b): the PyTorch MLIR
converter produces these ops from TorchScript.  The paper extends the
upstream frontend with ``norm`` and ``topk`` — both are first-class here.

Tensors use the plain :class:`~repro.ir.types.TensorType` (the paper's
``!torch.vtensor`` carries the same shape/dtype payload).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.attributes import BoolAttr, IntegerAttr
from repro.ir.operation import Operation
from repro.ir.types import TensorType, Type, i1, i64
from repro.ir.value import Value


class ConstantIntOp(Operation):
    """``torch.constant.int`` — an i64 scalar constant."""

    OP_NAME = "torch.constant.int"

    def __init__(self, value: int):
        super().__init__(
            result_types=[i64], attributes={"value": IntegerAttr(int(value))}
        )

    @property
    def value(self) -> int:
        return self.attributes["value"].value


class ConstantBoolOp(Operation):
    """``torch.constant.bool`` — an i1 scalar constant."""

    OP_NAME = "torch.constant.bool"

    def __init__(self, value: bool):
        super().__init__(
            result_types=[i1], attributes={"value": BoolAttr(bool(value))}
        )

    @property
    def value(self) -> bool:
        return self.attributes["value"].value


class TransposeIntOp(Operation):
    """``torch.aten.transpose.int`` — swap two dimensions."""

    OP_NAME = "torch.aten.transpose.int"

    def __init__(self, input: Value, dim0: int, dim1: int):
        in_type = input.type
        shape = list(in_type.shape)
        d0, d1 = dim0 % len(shape), dim1 % len(shape)
        shape[d0], shape[d1] = shape[d1], shape[d0]
        super().__init__(
            operands=[input],
            result_types=[TensorType(shape, in_type.element_type)],
            attributes={"dim0": IntegerAttr(dim0), "dim1": IntegerAttr(dim1)},
        )

    @property
    def dim0(self) -> int:
        return self.attributes["dim0"].value

    @property
    def dim1(self) -> int:
        return self.attributes["dim1"].value


def _matmul_result_type(lhs: Type, rhs: Type) -> TensorType:
    if lhs.shape[-1] != rhs.shape[-2 if len(rhs.shape) > 1 else 0]:
        raise ValueError(
            f"matmul contraction mismatch: {lhs} x {rhs}"
        )
    shape = list(lhs.shape[:-1]) + [rhs.shape[-1]]
    return TensorType(shape, lhs.element_type)


class MmOp(Operation):
    """``torch.aten.mm`` — 2-D matrix multiply."""

    OP_NAME = "torch.aten.mm"

    def __init__(self, lhs: Value, rhs: Value):
        super().__init__(
            operands=[lhs, rhs],
            result_types=[_matmul_result_type(lhs.type, rhs.type)],
        )


class MatmulOp(Operation):
    """``torch.aten.matmul`` — generalized matrix multiply."""

    OP_NAME = "torch.aten.matmul"

    def __init__(self, lhs: Value, rhs: Value):
        super().__init__(
            operands=[lhs, rhs],
            result_types=[_matmul_result_type(lhs.type, rhs.type)],
        )


class SubOp(Operation):
    """``torch.aten.sub.Tensor`` — elementwise (broadcasting) subtract."""

    OP_NAME = "torch.aten.sub"

    def __init__(self, lhs: Value, rhs: Value):
        shape = _broadcast_shape(lhs.type.shape, rhs.type.shape)
        super().__init__(
            operands=[lhs, rhs],
            result_types=[TensorType(shape, lhs.type.element_type)],
        )


class DivOp(Operation):
    """``torch.aten.div.Tensor`` — elementwise (broadcasting) divide.

    Accepts an optional second divisor (``lhs / rhs / rhs2``), matching
    the three-operand div of the cosine-similarity pattern.
    """

    OP_NAME = "torch.aten.div"

    def __init__(self, lhs: Value, rhs: Value, rhs2: Optional[Value] = None):
        shape = _broadcast_shape(lhs.type.shape, rhs.type.shape)
        operands = [lhs, rhs]
        if rhs2 is not None:
            shape = _broadcast_shape(shape, rhs2.type.shape)
            operands.append(rhs2)
        super().__init__(
            operands=operands,
            result_types=[TensorType(shape, lhs.type.element_type)],
        )


class NormOp(Operation):
    """``torch.aten.norm`` — vector p-norm along ``dim``.

    Part of the paper's frontend extension (§III-C): upstream torch-mlir
    lacked this op, C4CAM adds it because it is the core primitive of
    Euclidean similarity search.
    """

    OP_NAME = "torch.aten.norm"

    def __init__(self, input: Value, p: int = 2, dim: int = -1, keepdim: bool = False):
        in_type = input.type
        d = dim % in_type.rank
        shape = [s for i, s in enumerate(in_type.shape) if i != d]
        if keepdim:
            shape = list(in_type.shape)
            shape[d] = 1
        super().__init__(
            operands=[input],
            result_types=[TensorType(shape, in_type.element_type)],
            attributes={
                "p": IntegerAttr(p),
                "dim": IntegerAttr(dim),
                "keepdim": BoolAttr(keepdim),
            },
        )

    @property
    def p(self) -> int:
        return self.attributes["p"].value

    @property
    def dim(self) -> int:
        return self.attributes["dim"].value


class TopkOp(Operation):
    """``torch.aten.topk`` — top-k values and indices along ``dim``.

    ``k`` is an SSA operand (a ``torch.constant.int``), matching the IR in
    paper Fig. 4b; ``dim``/``largest``/``sorted`` are attributes.  Also part
    of the paper's frontend extension.
    """

    OP_NAME = "torch.aten.topk"

    def __init__(
        self,
        input: Value,
        k: Value,
        k_static: int,
        dim: int = -1,
        largest: bool = True,
        sorted: bool = True,
    ):
        in_type = input.type
        d = dim % in_type.rank
        shape = list(in_type.shape)
        shape[d] = k_static
        values_t = TensorType(shape, in_type.element_type)
        indices_t = TensorType(shape, i64)
        super().__init__(
            operands=[input, k],
            result_types=[values_t, indices_t],
            attributes={
                "k": IntegerAttr(k_static),
                "dim": IntegerAttr(dim),
                "largest": BoolAttr(largest),
                "sorted": BoolAttr(sorted),
            },
        )

    @property
    def k(self) -> int:
        return self.attributes["k"].value

    @property
    def dim(self) -> int:
        return self.attributes["dim"].value

    @property
    def largest(self) -> bool:
        return self.attributes["largest"].value


def _broadcast_shape(a: Sequence[int], b: Sequence[int]) -> list:
    """NumPy-style broadcast of two static shapes."""
    out = []
    ra, rb = list(reversed(a)), list(reversed(b))
    for i in range(max(len(ra), len(rb))):
        da = ra[i] if i < len(ra) else 1
        db = rb[i] if i < len(rb) else 1
        if da != db and da != 1 and db != 1:
            raise ValueError(f"cannot broadcast shapes {tuple(a)} and {tuple(b)}")
        out.append(max(da, db))
    return list(reversed(out))


#: Ops the torch-to-cim conversion knows how to lower (paper §III-D).
CIM_COMPATIBLE_OPS = (
    "torch.aten.transpose.int",
    "torch.aten.mm",
    "torch.aten.matmul",
    "torch.aten.sub",
    "torch.aten.div",
    "torch.aten.norm",
    "torch.aten.topk",
)
