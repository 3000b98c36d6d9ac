"""Attributes: compile-time constant data attached to operations.

Attributes are immutable and hashable, mirroring MLIR attribute semantics.
Each attribute knows how to print itself in an MLIR-like spelling.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .types import Type


class Attribute:
    """Base class of all attributes."""

    def _key(self) -> tuple:
        return (type(self),)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Attribute) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self})"


class IntegerAttr(Attribute):
    """An integer constant, e.g. ``42 : i64``."""

    def __init__(self, value: int, width: int = 64):
        self.value = int(value)
        self.width = int(width)

    def _key(self) -> tuple:
        return (IntegerAttr, self.value, self.width)

    def __str__(self) -> str:
        return f"{self.value} : i{self.width}"


class FloatAttr(Attribute):
    """A float constant, e.g. ``1.5 : f32``."""

    def __init__(self, value: float, width: int = 64):
        self.value = float(value)
        self.width = int(width)

    def _key(self) -> tuple:
        return (FloatAttr, self.value, self.width)

    def __str__(self) -> str:
        return f"{self.value} : f{self.width}"


class BoolAttr(Attribute):
    """``true`` or ``false``."""

    def __init__(self, value: bool):
        self.value = bool(value)

    def _key(self) -> tuple:
        return (BoolAttr, self.value)

    def __str__(self) -> str:
        return "true" if self.value else "false"


class StringAttr(Attribute):
    """A quoted string constant."""

    def __init__(self, value: str):
        self.value = str(value)

    def _key(self) -> tuple:
        return (StringAttr, self.value)

    def __str__(self) -> str:
        escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'


class TypeAttr(Attribute):
    """Wraps a :class:`~repro.ir.types.Type` as attribute data."""

    def __init__(self, type: Type):
        self.type = type

    def _key(self) -> tuple:
        return (TypeAttr, self.type)

    def __str__(self) -> str:
        return str(self.type)


class ArrayAttr(Attribute):
    """An ordered list of attributes, e.g. ``[1 : i64, 2 : i64]``."""

    def __init__(self, elements: Sequence[Attribute]):
        self.elements: Tuple[Attribute, ...] = tuple(elements)
        for e in self.elements:
            if not isinstance(e, Attribute):
                raise TypeError(f"ArrayAttr element is not an Attribute: {e!r}")

    def _key(self) -> tuple:
        return (ArrayAttr, self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> Attribute:
        return self.elements[i]

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.elements) + "]"


class SymbolRefAttr(Attribute):
    """Reference to a symbol (function) by name, e.g. ``@main``."""

    def __init__(self, name: str):
        self.name = str(name)

    def _key(self) -> tuple:
        return (SymbolRefAttr, self.name)

    def __str__(self) -> str:
        return f"@{self.name}"


class UnitAttr(Attribute):
    """Presence-only marker attribute (prints as ``unit``)."""

    def __str__(self) -> str:
        return "unit"


def as_attribute(value) -> Attribute:
    """Coerce a plain Python value to the matching attribute.

    Accepts attributes (returned unchanged), bools, ints, floats, strings,
    types and sequences thereof.
    """
    if isinstance(value, Attribute):
        return value
    if isinstance(value, bool):
        return BoolAttr(value)
    if isinstance(value, int):
        return IntegerAttr(value)
    if isinstance(value, float):
        return FloatAttr(value)
    if isinstance(value, str):
        return StringAttr(value)
    if isinstance(value, Type):
        return TypeAttr(value)
    if isinstance(value, (list, tuple)):
        return ArrayAttr([as_attribute(v) for v in value])
    raise TypeError(f"cannot convert {value!r} to an Attribute")
