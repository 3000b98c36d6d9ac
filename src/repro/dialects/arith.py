"""``arith`` dialect: constants, integer/float arithmetic and comparisons.

Only the operations the C4CAM pipeline and the host loops path need are
defined.  ``arith.sqrt`` stands in for MLIR's ``math.sqrt`` so the Euclidean
norm lowering does not need a separate dialect.
"""

from __future__ import annotations

from typing import Union

from repro.ir.attributes import FloatAttr, IntegerAttr, StringAttr
from repro.ir.operation import Operation
from repro.ir.types import FloatType, IndexType, IntegerType, Type, f32, i1, index
from repro.ir.value import Value


class ConstantOp(Operation):
    """An integer, index or float constant.

    ``value`` may be a Python int/float; the result type defaults to
    ``index`` for ints and ``f32`` for floats and can be overridden.
    """

    OP_NAME = "arith.constant"

    def __init__(self, value: Union[int, float], type: Type = None):
        if type is None:
            type = index if isinstance(value, int) else f32
        if isinstance(type, (IndexType, IntegerType)):
            attr = IntegerAttr(int(value))
        elif isinstance(type, FloatType):
            attr = FloatAttr(float(value), type.width)
        else:
            raise ValueError(f"unsupported constant type: {type}")
        super().__init__(result_types=[type], attributes={"value": attr})

    @property
    def value(self) -> Union[int, float]:
        return self.attributes["value"].value


class _BinaryOp(Operation):
    """Base for two-operand, one-result arithmetic ops."""

    def __init__(self, lhs: Value, rhs: Value):
        if lhs.type != rhs.type:
            raise ValueError(
                f"{type(self).OP_NAME}: operand types differ "
                f"({lhs.type} vs {rhs.type})"
            )
        super().__init__(operands=[lhs, rhs], result_types=[lhs.type])

    def verify(self) -> None:
        if self.num_operands != 2 or self.num_results != 1:
            raise ValueError(f"{self.name}: expects two operands, one result")


class AddIOp(_BinaryOp):
    OP_NAME = "arith.addi"


class SubIOp(_BinaryOp):
    OP_NAME = "arith.subi"


class MulIOp(_BinaryOp):
    OP_NAME = "arith.muli"


class DivSIOp(_BinaryOp):
    OP_NAME = "arith.divsi"


class RemSIOp(_BinaryOp):
    OP_NAME = "arith.remsi"


class MinSIOp(_BinaryOp):
    OP_NAME = "arith.minsi"


class AddFOp(_BinaryOp):
    OP_NAME = "arith.addf"


class SubFOp(_BinaryOp):
    OP_NAME = "arith.subf"


class MulFOp(_BinaryOp):
    OP_NAME = "arith.mulf"


class DivFOp(_BinaryOp):
    OP_NAME = "arith.divf"


class SqrtOp(Operation):
    """Elementwise square root (stand-in for ``math.sqrt``)."""

    OP_NAME = "arith.sqrt"

    def __init__(self, operand: Value):
        super().__init__(operands=[operand], result_types=[operand.type])


class CmpIOp(Operation):
    """Integer comparison; ``predicate`` is one of eq/ne/slt/sle/sgt/sge."""

    OP_NAME = "arith.cmpi"
    PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")

    def __init__(self, predicate: str, lhs: Value, rhs: Value):
        if predicate not in self.PREDICATES:
            raise ValueError(f"bad cmpi predicate: {predicate!r}")
        super().__init__(
            operands=[lhs, rhs],
            result_types=[i1],
            attributes={"predicate": StringAttr(predicate)},
        )

    @property
    def predicate(self) -> str:
        return self.attributes["predicate"].value


class SelectOp(Operation):
    """``result = condition ? true_value : false_value``."""

    OP_NAME = "arith.select"

    def __init__(self, condition: Value, true_value: Value, false_value: Value):
        if true_value.type != false_value.type:
            raise ValueError("arith.select: branch types differ")
        super().__init__(
            operands=[condition, true_value, false_value],
            result_types=[true_value.type],
        )


class IndexCastOp(Operation):
    """Cast between ``index`` and integer types."""

    OP_NAME = "arith.index_cast"

    def __init__(self, operand: Value, result_type: Type):
        super().__init__(operands=[operand], result_types=[result_type])
