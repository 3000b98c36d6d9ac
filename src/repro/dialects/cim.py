"""``cim`` dialect: the generic compute-in-memory abstraction.

C4CAM extends the CIM abstraction of CINM [16] with the analyses needed for
CAM devices (paper §III-D1).  The programming model is:

* ``cim.acquire``  — allocate an accelerator, returning a device handle;
* ``cim.execute``  — a region of device-compatible ops bound to a handle;
* ``cim.release`` — free the handle.

Inside ``cim.execute`` bodies live device-agnostic compute ops
(``cim.matmul``, ``cim.topk``, ...), the fused ``cim.similarity`` op the
pattern matcher produces (Algorithm 1), and ``cim.merge_partial`` which
accumulates partial results created by compulsory partitioning.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.attributes import BoolAttr, IntegerAttr, StringAttr
from repro.ir.block import Block
from repro.ir.operation import Operation
from repro.ir.types import DeviceHandleType, TensorType, Type, i64
from repro.ir.value import Value

#: Distance/similarity metrics accepted by ``cim.similarity``.
SIMILARITY_METRICS = ("dot", "euclidean", "cosine")

#: Accumulation directions for partial-result merging.
MERGE_DIRECTIONS = ("horizontal", "vertical")


class AcquireOp(Operation):
    """Allocate a CIM accelerator; returns an opaque device handle."""

    OP_NAME = "cim.acquire"
    HAS_SIDE_EFFECTS = True

    def __init__(self):
        super().__init__(result_types=[DeviceHandleType()])


class ReleaseOp(Operation):
    """Release a device handle obtained from ``cim.acquire``."""

    OP_NAME = "cim.release"
    HAS_SIDE_EFFECTS = True

    def __init__(self, device: Value):
        super().__init__(operands=[device])

    def verify(self) -> None:
        if self.num_operands != 1 or not isinstance(
            self.operands[0].type, DeviceHandleType
        ):
            raise ValueError("cim.release expects a single device handle")


class ExecuteOp(Operation):
    """A block of operations executed on one acquired device.

    Operands are the device handle followed by the tensors the body reads.
    The body block has one argument per input tensor and terminates with
    ``cim.yield``; results mirror the yielded values.
    """

    OP_NAME = "cim.execute"
    HAS_SIDE_EFFECTS = True

    def __init__(
        self,
        device: Value,
        inputs: Sequence[Value],
        result_types: Sequence[Type],
    ):
        super().__init__(
            operands=[device, *inputs],
            result_types=result_types,
            regions=1,
        )
        self.regions[0].append(Block([v.type for v in inputs]))

    @property
    def device(self) -> Value:
        return self.operands[0]

    @property
    def inputs(self) -> Sequence[Value]:
        return self.operands[1:]

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    def verify(self) -> None:
        if self.num_operands < 1 or not isinstance(
            self.operands[0].type, DeviceHandleType
        ):
            raise ValueError("cim.execute: first operand must be a device handle")
        if not self.regions or self.regions[0].empty:
            raise ValueError("cim.execute: requires a body block")
        term = self.body.terminator
        if term is None or term.name != "cim.yield":
            raise ValueError("cim.execute: body must end with cim.yield")
        if [v.type for v in term.operands] != [r.type for r in self.results]:
            raise ValueError("cim.execute: yielded types do not match results")


class YieldOp(Operation):
    """Terminator of a ``cim.execute`` body."""

    OP_NAME = "cim.yield"
    IS_TERMINATOR = True

    def __init__(self, operands: Sequence[Value] = ()):
        super().__init__(operands=operands)


# --------------------------------------------------------------------------
# Device-agnostic compute ops (lowered from torch by torch-to-cim).
# --------------------------------------------------------------------------


class TransposeOp(Operation):
    """``cim.transpose`` — swap two dimensions of a tensor."""

    OP_NAME = "cim.transpose"

    def __init__(self, input: Value, dim0: int = -2, dim1: int = -1):
        shape = list(input.type.shape)
        d0, d1 = dim0 % len(shape), dim1 % len(shape)
        shape[d0], shape[d1] = shape[d1], shape[d0]
        super().__init__(
            operands=[input],
            result_types=[TensorType(shape, input.type.element_type)],
            attributes={"dim0": IntegerAttr(dim0), "dim1": IntegerAttr(dim1)},
        )


class MatmulOp(Operation):
    """``cim.matmul`` — 2-D matrix multiply."""

    OP_NAME = "cim.matmul"

    def __init__(self, lhs: Value, rhs: Value):
        lt, rt = lhs.type, rhs.type
        if lt.shape[-1] != rt.shape[0]:
            raise ValueError(f"cim.matmul contraction mismatch: {lt} x {rt}")
        super().__init__(
            operands=[lhs, rhs],
            result_types=[
                TensorType([lt.shape[0], rt.shape[-1]], lt.element_type)
            ],
        )


class SubOp(Operation):
    """``cim.sub`` — broadcasting elementwise subtract."""

    OP_NAME = "cim.sub"

    def __init__(self, lhs: Value, rhs: Value):
        from .torch import _broadcast_shape

        shape = _broadcast_shape(lhs.type.shape, rhs.type.shape)
        super().__init__(
            operands=[lhs, rhs],
            result_types=[TensorType(shape, lhs.type.element_type)],
        )


class DivOp(Operation):
    """``cim.div`` — broadcasting elementwise divide.

    Supports the three-operand form ``lhs / rhs / rhs2`` of the cosine
    pattern (Algorithm 1: ``div(v4, v2, v1)``).
    """

    OP_NAME = "cim.div"

    def __init__(self, lhs: Value, rhs: Value, rhs2: Optional[Value] = None):
        from .torch import _broadcast_shape

        shape = _broadcast_shape(lhs.type.shape, rhs.type.shape)
        operands = [lhs, rhs]
        if rhs2 is not None:
            shape = _broadcast_shape(shape, rhs2.type.shape)
            operands.append(rhs2)
        super().__init__(
            operands=operands,
            result_types=[TensorType(shape, lhs.type.element_type)],
        )


class NormOp(Operation):
    """``cim.norm`` — p-norm reduction along ``dim``."""

    OP_NAME = "cim.norm"

    def __init__(self, input: Value, p: int = 2, dim: int = -1, keepdim: bool = False):
        in_type = input.type
        d = dim % in_type.rank
        if keepdim:
            shape = list(in_type.shape)
            shape[d] = 1
        else:
            shape = [s for i, s in enumerate(in_type.shape) if i != d]
        super().__init__(
            operands=[input],
            result_types=[TensorType(shape, in_type.element_type)],
            attributes={
                "p": IntegerAttr(p),
                "dim": IntegerAttr(dim),
                "keepdim": BoolAttr(keepdim),
            },
        )


class TopkOp(Operation):
    """``cim.topk`` — top-k selection along the last dimension."""

    OP_NAME = "cim.topk"

    def __init__(self, input: Value, k: Value, k_static: int, largest: bool = True):
        in_type = input.type
        shape = list(in_type.shape)
        shape[-1] = k_static
        super().__init__(
            operands=[input, k],
            result_types=[
                TensorType(shape, in_type.element_type),
                TensorType(shape, i64),
            ],
            attributes={
                "k": IntegerAttr(k_static),
                "largest": BoolAttr(largest),
            },
        )

    @property
    def k(self) -> int:
        return self.attributes["k"].value

    @property
    def largest(self) -> bool:
        return self.attributes["largest"].value


class SimilarityOp(Operation):
    """``cim.similarity`` — fused similarity search (Algorithm 1 output).

    ``metric`` is one of :data:`SIMILARITY_METRICS`.  Operands are the
    stored patterns (``P×D``), the queries (``Q×D``) and the ``k`` constant;
    results are the top-k values (``Q×k``) and indices (``Q×k``), selecting
    the ``k`` most similar stored patterns per query.
    """

    OP_NAME = "cim.similarity"

    def __init__(
        self,
        metric: str,
        stored: Value,
        query: Value,
        k: Value,
        k_static: int,
        largest: Optional[bool] = None,
        result_types: Optional[Sequence[Type]] = None,
    ):
        if metric not in SIMILARITY_METRICS:
            raise ValueError(f"unknown similarity metric: {metric!r}")
        qrows = query.type.shape[0]
        if largest is None:
            # Dot/cosine: larger is more similar; Euclidean: smaller is.
            largest = metric != "euclidean"
        if result_types is None:
            result_types = [
                TensorType([qrows, k_static], query.type.element_type),
                TensorType([qrows, k_static], i64),
            ]
        super().__init__(
            operands=[stored, query, k],
            result_types=list(result_types),
            attributes={
                "metric": StringAttr(metric),
                "k": IntegerAttr(k_static),
                "largest": BoolAttr(largest),
            },
        )

    @property
    def metric(self) -> str:
        return self.attributes["metric"].value

    @property
    def stored(self) -> Value:
        return self.operands[0]

    @property
    def query(self) -> Value:
        return self.operands[1]

    @property
    def k(self) -> int:
        return self.attributes["k"].value

    @property
    def largest(self) -> bool:
        return self.attributes["largest"].value

    def verify(self) -> None:
        st, qt = self.operands[0].type, self.operands[1].type
        if st.shape[-1] != qt.shape[-1]:
            raise ValueError(
                f"cim.similarity: stored/query dim mismatch ({st} vs {qt})"
            )


class ScoreOp(Operation):
    """``cim.score`` — per-pattern similarity scores (pre-top-k).

    Produced when partitioning splits a ``cim.similarity``: each partition
    computes partial scores over a slice of the feature dimension, which
    ``cim.merge_partial`` accumulates before the final top-k selection.
    Result is ``Q×P`` scores.
    """

    OP_NAME = "cim.score"

    def __init__(self, metric: str, stored: Value, query: Value):
        if metric not in SIMILARITY_METRICS:
            raise ValueError(f"unknown similarity metric: {metric!r}")
        patterns = stored.type.shape[0]
        qrows = query.type.shape[0]
        super().__init__(
            operands=[stored, query],
            result_types=[
                TensorType([qrows, patterns], query.type.element_type)
            ],
            attributes={"metric": StringAttr(metric)},
        )

    @property
    def metric(self) -> str:
        return self.attributes["metric"].value


class MergePartialOp(Operation):
    """``cim.merge_partial`` — accumulate partial results.

    ``kind`` names the producing operation (e.g. ``"similarity dot"``),
    ``direction`` is ``horizontal`` (accumulate along the reduced feature
    dimension, i.e. add partial scores) or ``vertical`` (concatenate results
    of disjoint pattern sets).  Operands: accumulator, partial; result has
    the accumulator's type.
    """

    OP_NAME = "cim.merge_partial"

    def __init__(self, kind: str, direction: str, acc: Value, partial: Value):
        if direction not in MERGE_DIRECTIONS:
            raise ValueError(f"unknown merge direction: {direction!r}")
        super().__init__(
            operands=[acc, partial],
            result_types=[acc.type],
            attributes={
                "kind": StringAttr(kind),
                "direction": StringAttr(direction),
            },
        )

    @property
    def kind(self) -> str:
        return self.attributes["kind"].value

    @property
    def direction(self) -> str:
        return self.attributes["direction"].value


#: Torch op name -> cim op class for the torch-to-cim conversion.
TORCH_TO_CIM = {
    "torch.aten.transpose.int": TransposeOp,
    "torch.aten.mm": MatmulOp,
    "torch.aten.matmul": MatmulOp,
    "torch.aten.sub": SubOp,
    "torch.aten.div": DivOp,
    "torch.aten.norm": NormOp,
    "torch.aten.topk": TopkOp,
}
