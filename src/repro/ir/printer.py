"""Textual IR printer (generic MLIR-like syntax).

The printer emits the *generic* operation form; ``c4cam --dump-ir``
prints each lowering stage this way, and ``tests/golden/`` pins the
text byte for byte::

    %0 = "torch.aten.mm"(%arg0, %1) : (tensor<10x8192xf32>, ...) -> tensor<10x10xf32>

Regions print inline::

    %5 = "cim.execute"(%4, %2) ({
    ^bb0(%arg1: tensor<10x8192xf32>):
      ...
      "cim.yield"(%11) : (tensor<8192x10xf32>) -> ()
    }) : (!cim.device, tensor<10x8192xf32>) -> tensor<8192x10xf32>
"""

from __future__ import annotations

from typing import Dict, List

from .block import Block, Region
from .operation import Operation
from .value import BlockArgument, Value


class _Printer:
    def __init__(self):
        self.names: Dict[int, str] = {}
        self.next_value = 0
        self.next_arg = 0
        self.next_block = 0
        self.lines: List[str] = []

    def name_of(self, value: Value) -> str:
        key = id(value)
        if key not in self.names:
            if isinstance(value, BlockArgument):
                self.names[key] = f"%arg{self.next_arg}"
                self.next_arg += 1
            else:
                self.names[key] = f"%{self.next_value}"
                self.next_value += 1
        return self.names[key]

    def block_label(self, block: Block) -> str:
        label = f"^bb{self.next_block}"
        self.next_block += 1
        return label

    def print_op(self, op: Operation, indent: int) -> None:
        pad = "  " * indent
        parts = []
        if op.results:
            parts.append(", ".join(self.name_of(r) for r in op.results))
            parts.append(" = ")
        parts.append(f'"{op.name}"')
        parts.append("(")
        parts.append(", ".join(self.name_of(v) for v in op.operands))
        parts.append(")")
        header = pad + "".join(parts)
        if op.regions:
            header += " ("
            self.lines.append(header + "{")
            for i, region in enumerate(op.regions):
                if i > 0:
                    self.lines.append(pad + "}, {")
                self.print_region(region, indent + 1)
            tail = pad + "})"
        else:
            self.lines.append(header)
            tail = self.lines.pop()
        if op.attributes:
            attrs = ", ".join(
                f"{k} = {v}" for k, v in sorted(op.attributes.items())
            )
            tail += " {" + attrs + "}"
        in_types = ", ".join(str(v.type) for v in op.operands)
        out_types = ", ".join(str(r.type) for r in op.results)
        if len(op.results) == 1:
            sig = f"({in_types}) -> {op.results[0].type}"
        else:
            sig = f"({in_types}) -> ({out_types})"
        tail += f" : {sig}"
        self.lines.append(tail)

    def print_region(self, region: Region, indent: int) -> None:
        pad = "  " * indent
        for bi, block in enumerate(region.blocks):
            if bi > 0 or block.arguments:
                args = ", ".join(
                    f"{self.name_of(a)}: {a.type}" for a in block.arguments
                )
                self.lines.append(f"{pad[:-2]}{self.block_label(block)}({args}):")
            for op in block.operations:
                self.print_op(op, indent)


def print_operation(op: Operation) -> str:
    """Render ``op`` (and everything nested in it) as text."""
    printer = _Printer()
    printer.print_op(op, 0)
    return "\n".join(printer.lines)


def print_module(module: Operation) -> str:
    """Render a module; alias of :func:`print_operation` for readability."""
    return print_operation(module)
