"""``tensor`` dialect: value-semantics tensor manipulation.

Used by the ``cim`` partitioning pass to slice operands (paper Fig. 5d:
``tensor.extract_slice``) and to materialise accumulators.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import ArrayAttr, IntegerAttr
from repro.ir.operation import Operation
from repro.ir.types import TensorType
from repro.ir.value import Value


def _int_array(values: Sequence[int]) -> ArrayAttr:
    return ArrayAttr([IntegerAttr(int(v)) for v in values])


def _as_ints(attr: ArrayAttr) -> list:
    return [e.value for e in attr]


class EmptyOp(Operation):
    """Materialise an uninitialised tensor of a static shape."""

    OP_NAME = "tensor.empty"

    def __init__(self, result_type: TensorType):
        super().__init__(result_types=[result_type])


class SplatOp(Operation):
    """A tensor filled with one scalar value (used for accumulator init)."""

    OP_NAME = "tensor.splat"

    def __init__(self, scalar: Value, result_type: TensorType):
        super().__init__(operands=[scalar], result_types=[result_type])


class ExtractSliceOp(Operation):
    """Extract a statically-sized slice: offsets/sizes/strides attributes.

    Mirrors ``tensor.extract_slice %t[offsets][sizes][strides]`` with the
    restriction that all parameters are static (which is all the
    partitioning pass produces; dynamic offsets use ``offset_operands``).
    """

    OP_NAME = "tensor.extract_slice"

    def __init__(
        self,
        source: Value,
        offsets: Sequence[int],
        sizes: Sequence[int],
        strides: Sequence[int] = None,
        offset_operands: Sequence[Value] = (),
    ):
        src_type = source.type
        if not isinstance(src_type, TensorType):
            raise ValueError("extract_slice source must be a tensor")
        strides = list(strides) if strides is not None else [1] * len(sizes)
        result_type = TensorType(list(sizes), src_type.element_type)
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
        return _as_ints(self.attributes["static_offsets"])

    @property
    def sizes(self) -> list:
        return _as_ints(self.attributes["static_sizes"])

    @property
    def strides(self) -> list:
        return _as_ints(self.attributes["static_strides"])


class InsertSliceOp(Operation):
    """Insert a tensor into a larger tensor at a static offset."""

    OP_NAME = "tensor.insert_slice"

    def __init__(
        self,
        source: Value,
        dest: Value,
        offsets: Sequence[int],
        offset_operands: Sequence[Value] = (),
    ):
        super().__init__(
            operands=[source, dest, *offset_operands],
            result_types=[dest.type],
            attributes={"static_offsets": _int_array(offsets)},
        )

    @property
    def source(self) -> Value:
        return self.operands[0]

    @property
    def dest(self) -> Value:
        return self.operands[1]

    @property
    def offsets(self) -> list:
        return _as_ints(self.attributes["static_offsets"])


class DimOp(Operation):
    """The size of one (static) dimension as an ``index`` value."""

    OP_NAME = "tensor.dim"

    def __init__(self, source: Value, dim: int):
        from repro.ir.types import index

        super().__init__(
            operands=[source],
            result_types=[index],
            attributes={"dim": IntegerAttr(dim)},
        )

    @property
    def dim(self) -> int:
        return self.attributes["dim"].value
