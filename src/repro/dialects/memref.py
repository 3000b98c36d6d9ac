"""``memref`` dialect: buffer-semantics memory ops.

The ``cim-to-cam`` conversion bufferizes tensors into memrefs (paper
§III-D2: "The cim to cam conversion pass also performs bufferization of
tensors"); the ``cam`` device ops then operate on memrefs.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import ArrayAttr, IntegerAttr
from repro.ir.operation import Operation
from repro.ir.types import MemRefType, TensorType
from repro.ir.value import Value


def _int_array(values: Sequence[int]) -> ArrayAttr:
    return ArrayAttr([IntegerAttr(int(v)) for v in values])


class AllocOp(Operation):
    """Allocate an uninitialised buffer of a static shape."""

    OP_NAME = "memref.alloc"

    def __init__(self, result_type: MemRefType):
        if not isinstance(result_type, MemRefType):
            raise ValueError("memref.alloc result must be a memref type")
        super().__init__(result_types=[result_type])


class DeallocOp(Operation):
    """Release a buffer produced by ``memref.alloc``."""

    OP_NAME = "memref.dealloc"
    HAS_SIDE_EFFECTS = True

    def __init__(self, buffer: Value):
        super().__init__(operands=[buffer])


class CopyOp(Operation):
    """Copy the contents of one buffer into another of equal shape."""

    OP_NAME = "memref.copy"
    HAS_SIDE_EFFECTS = True

    def __init__(self, source: Value, dest: Value):
        super().__init__(operands=[source, dest])

    @property
    def source(self) -> Value:
        return self.operands[0]

    @property
    def dest(self) -> Value:
        return self.operands[1]


class SubviewOp(Operation):
    """Static subview of a buffer (offsets/sizes/strides attributes).

    Dynamic offsets are passed as trailing ``offset_operands`` (index
    values); a ``-1`` in ``static_offsets`` marks the dynamic positions,
    matching MLIR's convention.
    """

    OP_NAME = "memref.subview"

    def __init__(
        self,
        source: Value,
        offsets: Sequence[int],
        sizes: Sequence[int],
        strides: Sequence[int] = None,
        offset_operands: Sequence[Value] = (),
    ):
        src_type = source.type
        if not isinstance(src_type, MemRefType):
            raise ValueError("subview source must be a memref")
        strides = list(strides) if strides is not None else [1] * len(sizes)
        result_type = MemRefType(list(sizes), src_type.element_type)
        super().__init__(
            operands=[source, *offset_operands],
            result_types=[result_type],
            attributes={
                "static_offsets": _int_array(offsets),
                "static_sizes": _int_array(sizes),
                "static_strides": _int_array(strides),
            },
        )

    @property
    def source(self) -> Value:
        return self.operands[0]

    @property
    def offsets(self) -> list:
        return [e.value for e in self.attributes["static_offsets"]]

    @property
    def sizes(self) -> list:
        return [e.value for e in self.attributes["static_sizes"]]


class ToMemrefOp(Operation):
    """Bufferize a tensor value into a fresh read-only buffer."""

    OP_NAME = "memref.to_memref"

    def __init__(self, tensor: Value):
        ttype = tensor.type
        if not isinstance(ttype, TensorType):
            raise ValueError("to_memref operand must be a tensor")
        super().__init__(
            operands=[tensor],
            result_types=[MemRefType(ttype.shape, ttype.element_type)],
        )


class ToTensorOp(Operation):
    """Read a buffer back into a tensor value.

    ``result_type`` may reshape to any tensor with the same element count
    (used when the bufferized layout differs from the SSA-level shape,
    e.g. a ``1×k`` buffer feeding a rank-1 ``k`` tensor).
    """

    OP_NAME = "memref.to_tensor"

    def __init__(self, buffer: Value, result_type: TensorType = None):
        mtype = buffer.type
        if not isinstance(mtype, MemRefType):
            raise ValueError("to_tensor operand must be a memref")
        if result_type is None:
            result_type = TensorType(mtype.shape, mtype.element_type)
        elif result_type.num_elements() != mtype.num_elements():
            raise ValueError(
                f"to_tensor reshape changes element count: "
                f"{mtype} -> {result_type}"
            )
        super().__init__(operands=[buffer], result_types=[result_type])


class FillOp(Operation):
    """Fill a buffer with one constant scalar (used to zero accumulators)."""

    OP_NAME = "memref.fill"
    HAS_SIDE_EFFECTS = True

    def __init__(self, buffer: Value, value: float = 0.0):
        from repro.ir.attributes import FloatAttr

        super().__init__(
            operands=[buffer], attributes={"value": FloatAttr(float(value))}
        )

    @property
    def value(self) -> float:
        return self.attributes["value"].value


class LoadOp(Operation):
    """Load one element at dynamic indices."""

    OP_NAME = "memref.load"

    def __init__(self, buffer: Value, indices: Sequence[Value]):
        mtype = buffer.type
        super().__init__(
            operands=[buffer, *indices],
            result_types=[mtype.element_type],
        )


class StoreOp(Operation):
    """Store one element at dynamic indices."""

    OP_NAME = "memref.store"
    HAS_SIDE_EFFECTS = True

    def __init__(self, value: Value, buffer: Value, indices: Sequence[Value]):
        super().__init__(operands=[value, buffer, *indices])
