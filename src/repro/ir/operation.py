"""The generic :class:`Operation`.

Every IR node is an ``Operation``: it has a dotted name (``dialect.op``),
typed operands and results, an attribute dictionary, and nested regions.
Dialect modules subclass ``Operation`` and set ``OP_NAME``, so builders
construct strongly-typed instances and passes dispatch on the class.

The design intentionally mirrors MLIR:

* operands are SSA :class:`~repro.ir.value.Value`\\ s with maintained
  use-lists;
* results are :class:`~repro.ir.value.OpResult`\\ s owned by the op;
* regions contain blocks, blocks contain operations — giving the nested,
  verifiable structure the C4CAM passes rely on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .attributes import Attribute, as_attribute
from .types import Type
from .value import OpResult, Value


class Operation:
    """A generic IR operation.

    Parameters
    ----------
    name:
        Dotted operation name, e.g. ``"cim.execute"``.  Subclasses with an
        ``OP_NAME`` may omit it.
    operands:
        SSA values consumed by the operation.
    result_types:
        Types of the produced results.
    attributes:
        Mapping of attribute name to :class:`Attribute` (plain Python values
        are coerced via :func:`~repro.ir.attributes.as_attribute`).
    regions:
        Number of (initially empty) regions, or a list of Region objects.
    """

    OP_NAME: Optional[str] = None

    # Traits, in the MLIR sense.  Subclasses may override.
    IS_TERMINATOR = False
    HAS_SIDE_EFFECTS = False

    def __init__(
        self,
        name: Optional[str] = None,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, object]] = None,
        regions: int = 0,
    ):
        from .block import Region

        self.name: str = name or type(self).OP_NAME or ""
        if not self.name:
            raise ValueError("operation requires a name")
        self._operands: List[Value] = []
        self.results: List[OpResult] = [
            OpResult(self, i, t) for i, t in enumerate(result_types)
        ]
        self.attributes: Dict[str, Attribute] = {
            k: as_attribute(v) for k, v in (attributes or {}).items()
        }
        if isinstance(regions, int):
            self.regions: List[Region] = [Region(self) for _ in range(regions)]
        else:
            self.regions = list(regions)
            for r in self.regions:
                r.parent_op = self
        self.parent_block = None  # set by Block.insert/append
        for v in operands:
            self._append_operand(v)

    # ---------------------------------------------------------------- utils
    @property
    def dialect(self) -> str:
        """Dialect prefix of the op name."""
        return self.name.split(".", 1)[0]

    @property
    def operands(self) -> Sequence[Value]:
        """Read-only view of the operand list (use set_operand to mutate)."""
        return tuple(self._operands)

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    @property
    def num_results(self) -> int:
        return len(self.results)

    @property
    def result(self) -> OpResult:
        """The single result (raises if the op has 0 or >1 results)."""
        if len(self.results) != 1:
            raise ValueError(f"{self.name} has {len(self.results)} results")
        return self.results[0]

    @property
    def parent_op(self) -> Optional["Operation"]:
        """The operation whose region contains this op, if any."""
        block = self.parent_block
        if block is None or block.parent_region is None:
            return None
        return block.parent_region.parent_op

    @property
    def parent_region(self):
        block = self.parent_block
        return None if block is None else block.parent_region

    # ------------------------------------------------------------- operands
    def _append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise TypeError(
                f"operand of {self.name} must be a Value, got {value!r}"
            )
        index = len(self._operands)
        self._operands.append(value)
        value._add_use(self, index)

    def _set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        old._remove_use(self, index)
        self._operands[index] = value
        value.uses.append(_use_at(self, index))

    def set_operand(self, index: int, value: Value) -> None:
        """Replace the ``index``-th operand with ``value``."""
        self._set_operand(index, value)

    def drop_all_operands(self) -> None:
        """Remove all operands, updating use lists."""
        for i, v in enumerate(self._operands):
            v._remove_use(self, i)
        self._operands.clear()

    # -------------------------------------------------------------- erasure
    def erase(self) -> None:
        """Remove this op from its block and drop its operand uses.

        The op must have no remaining uses of its results.
        """
        for r in self.results:
            if r.has_uses:
                raise RuntimeError(
                    f"cannot erase {self.name}: result #{r.index} still has uses"
                )
        self.drop_all_operands()
        for region in self.regions:
            for block in list(region.blocks):
                for op in list(block.operations):
                    op.drop_all_operands()
        if self.parent_block is not None:
            self.parent_block._remove(self)
            self.parent_block = None

    def replace_with(self, values: Sequence[Value]) -> None:
        """Replace all result uses with ``values`` and erase the op."""
        if len(values) != len(self.results):
            raise ValueError(
                f"replacement count mismatch: {len(values)} != {len(self.results)}"
            )
        for res, val in zip(self.results, values):
            res.replace_all_uses_with(val)
        self.erase()

    # ------------------------------------------------------------- movement
    def move_before(self, other: "Operation") -> None:
        """Detach this op and reinsert it immediately before ``other``."""
        if self.parent_block is not None:
            self.parent_block._remove(self)
        other.parent_block.insert_before(other, self)

    def move_after(self, other: "Operation") -> None:
        """Detach this op and reinsert it immediately after ``other``."""
        if self.parent_block is not None:
            self.parent_block._remove(self)
        other.parent_block.insert_after(other, self)

    # ------------------------------------------------------------ traversal
    def walk(self, post_order: bool = False):
        """Yield this op and every nested op (pre-order by default)."""
        if not post_order:
            yield self
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.operations):
                    yield from op.walk(post_order=post_order)
        if post_order:
            yield self

    # -------------------------------------------------------------- cloning
    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy this operation.

        ``value_map`` maps old values to new ones; operands found in the map
        are remapped, others are reused as-is.  Results and nested block
        arguments are added to the map so that uses inside cloned regions
        resolve to the cloned definitions.
        """
        from .block import Block

        value_map = value_map if value_map is not None else {}
        cls = type(self)
        new = Operation.__new__(cls)
        Operation.__init__(
            new,
            name=self.name,
            operands=[value_map.get(v, v) for v in self._operands],
            result_types=[r.type for r in self.results],
            attributes=dict(self.attributes),
            regions=0,
        )
        for old_res, new_res in zip(self.results, new.results):
            value_map[old_res] = new_res
        from .block import Region

        for region in self.regions:
            new_region = Region(new)
            new.regions.append(new_region)
            for block in region.blocks:
                new_block = Block([a.type for a in block.arguments])
                new_region.append(new_block)
                for old_arg, new_arg in zip(block.arguments, new_block.arguments):
                    value_map[old_arg] = new_arg
                for op in block.operations:
                    new_block.append(op.clone(value_map))
        return new

    # ---------------------------------------------------------- verification
    def verify(self) -> None:
        """Op-specific structural checks; subclasses override and extend."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"

    def __str__(self) -> str:
        from .printer import print_operation

        return print_operation(self)


def _use_at(op: Operation, index: int):
    from .value import Use

    return Use(op, index)
