"""``func`` dialect: functions, returns and calls."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.ir.attributes import StringAttr, SymbolRefAttr, TypeAttr
from repro.ir.block import Block
from repro.ir.operation import Operation
from repro.ir.types import FunctionType, Type
from repro.ir.value import BlockArgument, Value


class FuncOp(Operation):
    """A named function with a single-region body.

    ``sym_name`` holds the symbol name and ``function_type`` the signature;
    the entry block carries one argument per input type.
    """

    OP_NAME = "func.func"

    def __init__(self, name: str = "", function_type: Optional[FunctionType] = None):
        function_type = function_type or FunctionType([], [])
        super().__init__(
            attributes={
                "sym_name": StringAttr(name),
                "function_type": TypeAttr(function_type),
            },
            regions=1,
        )
        self.regions[0].append(Block(function_type.inputs))

    @property
    def sym_name(self) -> str:
        return self.attributes["sym_name"].value

    @property
    def function_type(self) -> FunctionType:
        return self.attributes["function_type"].type

    @property
    def body(self) -> Block:
        """The entry block."""
        return self.regions[0].entry_block

    @property
    def arguments(self) -> List[BlockArgument]:
        return self.body.arguments

    def verify(self) -> None:
        ft = self.attributes.get("function_type")
        if not isinstance(ft, TypeAttr) or not isinstance(ft.type, FunctionType):
            raise ValueError("func.func requires a function_type attribute")
        if self.regions and self.regions[0].blocks:
            args = self.body.arguments
            if [a.type for a in args] != list(self.function_type.inputs):
                raise ValueError(
                    f"func.func @{self.sym_name}: entry block arguments do "
                    f"not match the function signature"
                )


class ReturnOp(Operation):
    """Function terminator returning zero or more values."""

    OP_NAME = "func.return"
    IS_TERMINATOR = True

    def __init__(self, operands: Sequence[Value] = ()):
        super().__init__(operands=operands)


class CallOp(Operation):
    """Direct call of a function symbol."""

    OP_NAME = "func.call"

    def __init__(
        self,
        callee: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
    ):
        super().__init__(
            operands=operands,
            result_types=result_types,
            attributes={"callee": SymbolRefAttr(callee)},
        )

    @property
    def callee(self) -> str:
        return self.attributes["callee"].name
