"""Type system for the mini-MLIR IR.

Types are immutable, hashable value objects.  Structural equality is used
everywhere (two ``TensorType([2, 3], f32)`` instances compare equal), which
mirrors MLIR's type uniquing without requiring a context-owned uniquer.

The set of types mirrors what the C4CAM lowering pipeline needs:

* scalar types: ``IndexType``, ``IntegerType``, ``FloatType``, ``BoolType``
* shaped types: ``TensorType`` (value semantics, used by torch/cim dialects)
  and ``MemRefType`` (buffer semantics, used after bufferization by the cam
  dialect)
* opaque device-handle types used by the ``cim``/``cam`` dialects:
  ``DeviceHandleType`` and ``CamIdType`` (bank/mat/array/subarray ids)
"""

from __future__ import annotations

from typing import Sequence, Tuple


class Type:
    """Base class of all IR types.

    Subclasses must be immutable and implement ``__eq__``/``__hash__`` (the
    default implementations compare the ``_key`` tuple) and ``__str__`` using
    MLIR-like spellings, which the printer emits.
    """

    def _key(self) -> tuple:
        return (type(self),)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Type) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self})"


class IndexType(Type):
    """Platform-sized integer used for loop bounds and sizes (``index``)."""

    def __str__(self) -> str:
        return "index"


class IntegerType(Type):
    """Fixed-width signless integer, e.g. ``i32``, ``i64``."""

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError(f"integer width must be positive, got {width}")
        self.width = int(width)

    def _key(self) -> tuple:
        return (IntegerType, self.width)

    def __str__(self) -> str:
        return f"i{self.width}"


class FloatType(Type):
    """IEEE float of a given width, e.g. ``f32``, ``f64``."""

    def __init__(self, width: int):
        if width not in (16, 32, 64):
            raise ValueError(f"unsupported float width: {width}")
        self.width = int(width)

    def _key(self) -> tuple:
        return (FloatType, self.width)

    def __str__(self) -> str:
        return f"f{self.width}"


class BoolType(Type):
    """1-bit boolean (printed ``i1`` like MLIR)."""

    def __str__(self) -> str:
        return "i1"


class NoneType(Type):
    """Unit type for ops that produce no meaningful value (``none``)."""

    def __str__(self) -> str:
        return "none"


DYNAMIC = -1
"""Sentinel for a dynamic dimension in a shaped type (printed ``?``)."""


class ShapedType(Type):
    """Common base for tensor and memref types."""

    def __init__(self, shape: Sequence[int], element_type: Type):
        shape = tuple(int(d) for d in shape)
        for d in shape:
            if d < 0 and d != DYNAMIC:
                raise ValueError(f"invalid dimension {d}")
        if not isinstance(element_type, Type) or isinstance(element_type, ShapedType):
            raise ValueError(f"invalid element type: {element_type!r}")
        self.shape: Tuple[int, ...] = shape
        self.element_type = element_type

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def has_static_shape(self) -> bool:
        """True when no dimension is dynamic."""
        return all(d != DYNAMIC for d in self.shape)

    def num_elements(self) -> int:
        """Total element count; raises for dynamic shapes."""
        if not self.has_static_shape:
            raise ValueError(f"type {self} has dynamic shape")
        n = 1
        for d in self.shape:
            n *= d
        return n

    def _key(self) -> tuple:
        return (type(self), self.shape, self.element_type)

    def _shape_str(self) -> str:
        dims = "x".join("?" if d == DYNAMIC else str(d) for d in self.shape)
        return f"{dims}x" if dims else ""


class TensorType(ShapedType):
    """Immutable value-semantics tensor, e.g. ``tensor<10x8192xf32>``."""

    def __str__(self) -> str:
        return f"tensor<{self._shape_str()}{self.element_type}>"


class MemRefType(ShapedType):
    """Mutable buffer reference, e.g. ``memref<10x32xf32>``."""

    def __str__(self) -> str:
        return f"memref<{self._shape_str()}{self.element_type}>"


class FunctionType(Type):
    """Signature of a function: ``(inputs...) -> (results...)``."""

    def __init__(self, inputs: Sequence[Type], results: Sequence[Type]):
        self.inputs: Tuple[Type, ...] = tuple(inputs)
        self.results: Tuple[Type, ...] = tuple(results)

    def _key(self) -> tuple:
        return (FunctionType, self.inputs, self.results)

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        if len(self.results) == 1:
            return f"({ins}) -> {self.results[0]}"
        outs = ", ".join(str(t) for t in self.results)
        return f"({ins}) -> ({outs})"


class DeviceHandleType(Type):
    """Opaque handle to an acquired CIM device (``!cim.device``)."""

    def __str__(self) -> str:
        return "!cim.device"


class CamIdType(Type):
    """Identifier of one level of the CAM hierarchy.

    ``level`` is one of ``bank``, ``mat``, ``array``, ``subarray`` and the
    type prints as e.g. ``!cam.bank_id``.
    """

    LEVELS = ("bank", "mat", "array", "subarray")

    def __init__(self, level: str):
        if level not in self.LEVELS:
            raise ValueError(f"invalid CAM hierarchy level: {level!r}")
        self.level = level

    def _key(self) -> tuple:
        return (CamIdType, self.level)

    def __str__(self) -> str:
        return f"!cam.{self.level}_id"


# Commonly used singleton-ish instances (structural equality makes sharing
# these purely a convenience).
index = IndexType()
i1 = BoolType()
i8 = IntegerType(8)
i32 = IntegerType(32)
i64 = IntegerType(64)
f16 = FloatType(16)
f32 = FloatType(32)
f64 = FloatType(64)
none = NoneType()
