"""Mini-MLIR intermediate representation.

This package provides the IR substrate C4CAM is built on: SSA values,
typed operations with nested regions, textual printing (``--dump-ir``),
verification, builders and traversal utilities.  IR is built by the
frontend and the passes, never read back from text.
"""

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
    as_attribute,
)
from .block import Block, Region
from .builder import InsertionPoint, OpBuilder
from .module import ModuleOp
from .operation import Operation
from .printer import print_module, print_operation
from .traversal import count, first, parent_of_type, walk
from .types import (
    DYNAMIC,
    BoolType,
    CamIdType,
    DeviceHandleType,
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    NoneType,
    ShapedType,
    TensorType,
    Type,
    f16,
    f32,
    f64,
    i1,
    i8,
    i32,
    i64,
    index,
    none,
)
from .value import BlockArgument, OpResult, Use, Value
from .verifier import VerificationError, verify

__all__ = [
    "ArrayAttr", "Attribute", "BoolAttr", "FloatAttr", "IntegerAttr",
    "StringAttr", "SymbolRefAttr", "TypeAttr", "UnitAttr", "as_attribute",
    "Block", "Region", "InsertionPoint", "OpBuilder", "ModuleOp",
    "Operation", "print_module", "print_operation", "count", "first",
    "parent_of_type", "walk", "DYNAMIC", "BoolType", "CamIdType",
    "DeviceHandleType", "FloatType", "FunctionType", "IndexType",
    "IntegerType", "MemRefType", "NoneType", "ShapedType", "TensorType",
    "Type", "f16", "f32", "f64", "i1", "i8", "i32", "i64", "index", "none",
    "BlockArgument", "OpResult", "Use", "Value", "VerificationError",
    "verify",
]
