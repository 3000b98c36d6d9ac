"""``scf`` dialect: structured control flow (for / parallel loops).

The ``cam-map`` pass emits the nested loop structure of paper Fig. 6:
``scf.parallel`` for levels whose access mode is parallel and ``scf.for``
for serialized levels (the latency difference between the two is what the
executor's timing model measures).
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.block import Block
from repro.ir.operation import Operation
from repro.ir.types import IndexType, index
from repro.ir.value import Value


class YieldOp(Operation):
    """Terminator for scf region bodies, forwarding iteration results."""

    OP_NAME = "scf.yield"
    IS_TERMINATOR = True

    def __init__(self, operands: Sequence[Value] = ()):
        super().__init__(operands=operands)


class _LoopBase(Operation):
    """Common accessors for for/parallel loops (single induction var)."""

    @property
    def lower_bound(self) -> Value:
        return self.operands[0]

    @property
    def upper_bound(self) -> Value:
        return self.operands[1]

    @property
    def step(self) -> Value:
        return self.operands[2]

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    @property
    def induction_var(self) -> Value:
        return self.body.arguments[0]

    def verify(self) -> None:
        if self.num_operands < 3:
            raise ValueError(f"{self.name}: needs lb, ub and step operands")
        for i in range(3):
            if not isinstance(self.operands[i].type, IndexType):
                raise ValueError(f"{self.name}: bounds must be index-typed")
        if not self.regions or self.regions[0].empty:
            raise ValueError(f"{self.name}: requires a body block")


class ForOp(_LoopBase):
    """Sequential counted loop with optional loop-carried values.

    Operands: ``lb, ub, step, init_values...``; the body block receives the
    induction variable plus one argument per loop-carried value, and must
    terminate with ``scf.yield`` of the next carried values.  Results are
    the final carried values.
    """

    OP_NAME = "scf.for"

    def __init__(
        self,
        lower_bound: Value,
        upper_bound: Value,
        step: Value,
        init_values: Sequence[Value] = (),
    ):
        super().__init__(
            operands=[lower_bound, upper_bound, step, *init_values],
            result_types=[v.type for v in init_values],
            regions=1,
        )
        block = Block([index] + [v.type for v in init_values])
        self.regions[0].append(block)

    @property
    def init_values(self) -> Sequence[Value]:
        return self.operands[3:]

    @property
    def iter_args(self) -> Sequence[Value]:
        return self.body.arguments[1:]


class ParallelOp(_LoopBase):
    """Parallel counted loop: all iterations are independent.

    The executor's timing model starts every iteration at the same time and
    joins at the maximum end time, so nesting ``scf.parallel`` vs ``scf.for``
    is precisely how mapping decisions change latency.
    """

    OP_NAME = "scf.parallel"

    def __init__(self, lower_bound: Value, upper_bound: Value, step: Value):
        super().__init__(
            operands=[lower_bound, upper_bound, step],
            regions=1,
        )
        self.regions[0].append(Block([index]))


class IfOp(Operation):
    """Two-armed conditional; region 0 is then, region 1 is else."""

    OP_NAME = "scf.if"

    def __init__(self, condition: Value, result_types: Sequence = ()):
        super().__init__(
            operands=[condition],
            result_types=result_types,
            regions=2,
        )
        self.regions[0].append(Block())
        self.regions[1].append(Block())

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def then_block(self) -> Block:
        return self.regions[0].entry_block

    @property
    def else_block(self) -> Block:
        return self.regions[1].entry_block
