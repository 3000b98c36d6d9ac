"""``cam`` dialect: the CAM device abstraction (paper §III-D2).

The ``cim-to-cam`` conversion replaces acquire/execute/release sequences
with hierarchy allocations and device calls:

* allocation: ``cam.alloc_bank`` → ``cam.alloc_mat`` → ``cam.alloc_array``
  → ``cam.alloc_subarray``;
* execution: ``cam.write_value`` (program rows), ``cam.search`` (search
  with a type and metric), ``cam.read`` (fetch values/indices);
* reduction: ``cam.merge_partial`` accumulates partial row scores across
  subarrays/arrays/mats/banks, and ``cam.select_topk`` performs the final
  (host-side) selection over merged scores.

Search types (§II-B): ``exact``, ``best``, ``threshold`` (range).
Metrics: ``hamming`` (B/TCAM bit-wise), ``euclidean`` (M/ACAM analog
distance), ``dot`` (multi-bit dot-product similarity à la iMARS).
"""

from __future__ import annotations


from repro.ir.attributes import BoolAttr, FloatAttr, IntegerAttr, StringAttr
from repro.ir.operation import Operation
from repro.ir.types import CamIdType, MemRefType, Type, i64
from repro.ir.value import Value

SEARCH_TYPES = ("exact", "best", "threshold")
SEARCH_METRICS = ("hamming", "euclidean", "dot")
MERGE_LEVELS = ("subarray", "array", "mat", "bank", "system")


class AllocBankOp(Operation):
    """Allocate a CAM bank sized for ``rows × cols`` subarrays."""

    OP_NAME = "cam.alloc_bank"
    HAS_SIDE_EFFECTS = True

    def __init__(self, rows: Value, cols: Value):
        super().__init__(
            operands=[rows, cols], result_types=[CamIdType("bank")]
        )


class AllocMatOp(Operation):
    """Allocate a mat within a bank."""

    OP_NAME = "cam.alloc_mat"
    HAS_SIDE_EFFECTS = True

    def __init__(self, bank: Value):
        super().__init__(operands=[bank], result_types=[CamIdType("mat")])

    def verify(self) -> None:
        if self.operands[0].type != CamIdType("bank"):
            raise ValueError("cam.alloc_mat expects a bank id")


class AllocArrayOp(Operation):
    """Allocate a CAM array within a mat."""

    OP_NAME = "cam.alloc_array"
    HAS_SIDE_EFFECTS = True

    def __init__(self, mat: Value):
        super().__init__(operands=[mat], result_types=[CamIdType("array")])

    def verify(self) -> None:
        if self.operands[0].type != CamIdType("mat"):
            raise ValueError("cam.alloc_array expects a mat id")


class AllocSubarrayOp(Operation):
    """Allocate a subarray (the smallest independently-searchable block)."""

    OP_NAME = "cam.alloc_subarray"
    HAS_SIDE_EFFECTS = True

    def __init__(self, array: Value):
        super().__init__(operands=[array], result_types=[CamIdType("subarray")])

    def verify(self) -> None:
        if self.operands[0].type != CamIdType("array"):
            raise ValueError("cam.alloc_subarray expects an array id")


class SubarrayRefOp(Operation):
    """Address the ``index``-th allocated subarray of the machine.

    Allocation order is deterministic (the setup nest enumerates the
    hierarchy linearly), so a linear index identifies a subarray across
    the separate write and search loop nests.
    """

    OP_NAME = "cam.subarray_ref"

    def __init__(self, index: Value):
        super().__init__(operands=[index], result_types=[CamIdType("subarray")])


class QueryStartOp(Operation):
    """Start of one query: clears accumulators, charges front-end setup."""

    OP_NAME = "cam.query_start"
    HAS_SIDE_EFFECTS = True

    def __init__(self):
        super().__init__()


class SyncOp(Operation):
    """A reduction-network hop at one hierarchy level.

    Charged once per query per level transition; models the interconnect
    latency of combining per-subarray partials up the hierarchy.
    """

    OP_NAME = "cam.sync"
    HAS_SIDE_EFFECTS = True

    def __init__(self, level: str, rows: int = 0):
        if level not in MERGE_LEVELS:
            raise ValueError(f"unknown sync level: {level!r}")
        super().__init__(
            attributes={"level": StringAttr(level), "rows": IntegerAttr(rows)}
        )

    @property
    def level(self) -> str:
        return self.attributes["level"].value

    @property
    def rows(self) -> int:
        return self.attributes["rows"].value


class WriteValueOp(Operation):
    """Program stored patterns into a subarray.

    ``row_offset`` supports selective-search data placement: multiple
    batches of patterns can be stacked at different row offsets of the same
    subarray (paper §III-D2, built-in optimizations).
    """

    OP_NAME = "cam.write_value"
    HAS_SIDE_EFFECTS = True

    def __init__(self, subarray: Value, data: Value, row_offset: int = 0):
        super().__init__(
            operands=[subarray, data],
            attributes={"row_offset": IntegerAttr(row_offset)},
        )

    @property
    def subarray(self) -> Value:
        return self.operands[0]

    @property
    def data(self) -> Value:
        return self.operands[1]

    @property
    def row_offset(self) -> int:
        return self.attributes["row_offset"].value

    def verify(self) -> None:
        if self.operands[0].type != CamIdType("subarray"):
            raise ValueError("cam.write_value expects a subarray id")
        if not isinstance(self.operands[1].type, MemRefType):
            raise ValueError("cam.write_value data must be a memref")


class SearchOp(Operation):
    """Search a query against a subarray.

    Attributes:

    * ``search_type``: exact / best / threshold;
    * ``metric``: hamming / euclidean / dot;
    * ``row_begin`` / ``row_count``: selective row search window
      (``row_count == -1`` searches every valid row);
    * ``threshold``: match threshold for threshold search.
    """

    OP_NAME = "cam.search"
    HAS_SIDE_EFFECTS = True

    def __init__(
        self,
        subarray: Value,
        query: Value,
        search_type: str = "best",
        metric: str = "hamming",
        row_begin: int = 0,
        row_count: int = -1,
        threshold: float = 0.0,
        accumulate: bool = False,
    ):
        if search_type not in SEARCH_TYPES:
            raise ValueError(f"unknown search type: {search_type!r}")
        if metric not in SEARCH_METRICS:
            raise ValueError(f"unknown search metric: {metric!r}")
        super().__init__(
            operands=[subarray, query],
            attributes={
                "search_type": StringAttr(search_type),
                "metric": StringAttr(metric),
                "row_begin": IntegerAttr(row_begin),
                "row_count": IntegerAttr(row_count),
                "threshold": FloatAttr(threshold),
                "accumulate": BoolAttr(accumulate),
            },
        )

    @property
    def accumulate(self) -> bool:
        return self.attributes["accumulate"].value

    @property
    def subarray(self) -> Value:
        return self.operands[0]

    @property
    def query(self) -> Value:
        return self.operands[1]

    @property
    def search_type(self) -> str:
        return self.attributes["search_type"].value

    @property
    def metric(self) -> str:
        return self.attributes["metric"].value

    @property
    def row_begin(self) -> int:
        return self.attributes["row_begin"].value

    @property
    def row_count(self) -> int:
        return self.attributes["row_count"].value

    def verify(self) -> None:
        if self.operands[0].type != CamIdType("subarray"):
            raise ValueError("cam.search expects a subarray id")
        if not isinstance(self.operands[1].type, MemRefType):
            raise ValueError("cam.search query must be a memref")


class ReadOp(Operation):
    """Read the result of the last search on a subarray.

    Returns two buffers: per-row match scores (values) and the global row
    indices they correspond to.  ``rows`` fixes the static result size.
    """

    OP_NAME = "cam.read"
    HAS_SIDE_EFFECTS = True

    def __init__(self, subarray: Value, rows: int, element_type: Type):
        super().__init__(
            operands=[subarray],
            result_types=[
                MemRefType([rows, 1], element_type),
                MemRefType([rows, 1], i64),
            ],
            attributes={"rows": IntegerAttr(rows)},
        )

    @property
    def subarray(self) -> Value:
        return self.operands[0]

    @property
    def rows(self) -> int:
        return self.attributes["rows"].value


class MergePartialOp(Operation):
    """Accumulate a partial score buffer into an accumulator buffer.

    ``direction = horizontal`` adds scores elementwise (partitions of the
    feature dimension); ``vertical`` writes the partial rows at
    ``row_offset`` within the accumulator (partitions of the pattern set).
    ``level`` records at which hierarchy level the merge happens — the
    timing model charges the corresponding interconnect.
    """

    OP_NAME = "cam.merge_partial"
    HAS_SIDE_EFFECTS = True

    def __init__(
        self,
        acc: Value,
        partial: Value,
        direction: str = "horizontal",
        level: str = "subarray",
        row_offset: int = 0,
        row_offset_value: "Value" = None,
    ):
        if level not in MERGE_LEVELS:
            raise ValueError(f"unknown merge level: {level!r}")
        operands = [acc, partial]
        if row_offset_value is not None:
            operands.append(row_offset_value)
        super().__init__(
            operands=operands,
            attributes={
                "direction": StringAttr(direction),
                "level": StringAttr(level),
                "row_offset": IntegerAttr(row_offset),
            },
        )

    @property
    def acc(self) -> Value:
        return self.operands[0]

    @property
    def partial(self) -> Value:
        return self.operands[1]

    @property
    def direction(self) -> str:
        return self.attributes["direction"].value

    @property
    def level(self) -> str:
        return self.attributes["level"].value

    @property
    def row_offset(self) -> int:
        return self.attributes["row_offset"].value


class SelectTopkOp(Operation):
    """Final top-k selection over a merged score buffer (host peripheral).

    Models the winner-take-all / sorting peripheral that picks the best
    ``k`` rows once all partial scores are merged.
    """

    OP_NAME = "cam.select_topk"
    HAS_SIDE_EFFECTS = True

    def __init__(
        self,
        scores: Value,
        k: int,
        largest: bool,
        values_out: Value,
        indices_out: Value,
    ):
        super().__init__(
            operands=[scores, values_out, indices_out],
            attributes={"k": IntegerAttr(k), "largest": BoolAttr(largest)},
        )

    @property
    def scores(self) -> Value:
        return self.operands[0]

    @property
    def values_out(self) -> Value:
        return self.operands[1]

    @property
    def indices_out(self) -> Value:
        return self.operands[2]

    @property
    def k(self) -> int:
        return self.attributes["k"].value

    @property
    def largest(self) -> bool:
        return self.attributes["largest"].value
