"""The top-level ``builtin.module`` container operation."""

from __future__ import annotations

from typing import Iterator, Optional

from .block import Block
from .operation import Operation


class ModuleOp(Operation):
    """Top-level container holding functions (and other symbol ops).

    The module has a single region with a single block and no terminator,
    like MLIR's ``builtin.module``.
    """

    OP_NAME = "builtin.module"

    def __init__(self):
        super().__init__(regions=1)
        self.regions[0].append(Block())

    @property
    def body(self) -> Block:
        """The single block holding the module's top-level ops."""
        return self.regions[0].entry_block

    def append(self, op: Operation) -> Operation:
        """Add a top-level operation (usually a function)."""
        return self.body.append(op)

    def functions(self) -> Iterator[Operation]:
        """Iterate over contained ``func.func`` operations."""
        for op in self.body:
            if op.name == "func.func":
                yield op

    def lookup_symbol(self, name: str) -> Optional[Operation]:
        """Find a top-level op whose ``sym_name`` attribute equals ``name``."""
        from .attributes import StringAttr

        for op in self.body:
            sym = op.attributes.get("sym_name")
            if isinstance(sym, StringAttr) and sym.value == name:
                return op
        return None

    def verify(self) -> None:
        if len(self.regions) != 1 or len(self.regions[0]) != 1:
            raise ValueError("builtin.module must have exactly one block")
