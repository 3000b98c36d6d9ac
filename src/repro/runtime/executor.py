"""IR interpreter with a structural timing model.

The executor runs lowered modules against a
:class:`~repro.simulator.machine.CamMachine`.  Its clock follows the IR's
control structure:

* ``scf.for`` bodies execute back-to-back — serialized levels and batch
  loops accumulate latency;
* ``scf.parallel`` iterations all start at the loop's start time and the
  loop completes at the **maximum** iteration end time — parallel levels
  overlap completely;
* device ops advance the clock by the duration the machine reports;
* ``cam.write_value`` is charged to a separate *setup* clock (stored
  patterns are programmed once, queries stream afterwards).

Every walk records the programming it does (:attr:`Interpreter.programming`):
the hierarchy allocations and tile writes, in order, with each write's
setup-clock stamp — what a
:class:`~repro.runtime.session.QuerySession` replays to program a
replica without walking the module again.

The same interpreter executes pre-lowering IR (torch / cim dialects) with
numpy semantics at zero cost — that is the host reference path used for
functional validation.

The ``cam`` handlers are batch-tolerant: score buffers and partials may
carry a leading query-batch axis (one row per in-flight query), in which
case reads, merges and the final top-k operate on the whole batch in one
vectorized step.  :class:`repro.runtime.session.QuerySession` uses the
same machine entry points to stream query batches against a machine that
was programmed once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.types import MemRefType, TensorType
from repro.ir.value import Value
from repro.simulator.machine import CamMachine
from repro.simulator.metrics import ExecutionReport

from . import values as host


class ExecutionError(RuntimeError):
    """The interpreter hit an unsupported op or inconsistent state."""


class _Env:
    """SSA value bindings (chained per region for clarity)."""

    def __init__(self):
        self._bindings: Dict[int, object] = {}

    def set(self, value: Value, obj) -> None:
        self._bindings[id(value)] = obj

    def get(self, value: Value):
        try:
            return self._bindings[id(value)]
        except KeyError:
            raise ExecutionError(f"unbound SSA value: {value!r}") from None


class Interpreter:
    """Executes one module; create one per execution."""

    def __init__(
        self,
        module: ModuleOp,
        machine: Optional[CamMachine] = None,
        subarray_base: int = 0,
    ):
        self.module = module
        self.machine = machine
        #: Linear-index origin of this module's subarrays on the machine.
        #: A module compiled standalone addresses subarrays 0..N-1 through
        #: ``cam.subarray_ref``; when several modules share one machine
        #: (multi-tenant placement), each walk resolves its references
        #: relative to the subarrays it allocated itself.
        self.subarray_base = int(subarray_base)
        self.setup_time = 0.0
        # Queries answered: each cam.query_start opens a segment that
        # counts 1 query, widened to B when a batched (B×C) search
        # streams through it.
        self.query_count = 0
        self._segment_batch = 0
        #: The machine's programming calls this walk made, in order, as
        #: ``(method, *args)`` with the machine's own ids: every
        #: ``alloc_*`` and every ``write_value`` (a private float64 copy
        #: of the tile, its row offset and its setup-clock stamp).
        self.programming: List[tuple] = []

    def _flush_query_segment(self) -> None:
        self.query_count += self._segment_batch
        self._segment_batch = 0

    # ------------------------------------------------------------- running
    def run_function(
        self, name: str, inputs: Sequence[np.ndarray]
    ) -> Tuple[List[np.ndarray], Optional[ExecutionReport]]:
        """Run ``name`` on ``inputs``; returns (outputs, report).

        The report is None when no machine is attached (host path).
        """
        func = self.module.lookup_symbol(name)
        if func is None:
            raise ExecutionError(f"no function named {name!r}")
        env = _Env()
        block = func.body
        if len(block.arguments) != len(inputs):
            raise ExecutionError(
                f"{name} expects {len(block.arguments)} arguments, "
                f"got {len(inputs)}"
            )
        for arg, value in zip(block.arguments, inputs):
            env.set(arg, _coerce_input(arg, value))
        results, t_end = self._run_block(block, env, 0.0)
        self._flush_query_segment()
        outputs = [np.asarray(r) for r in results]
        report = None
        if self.machine is not None:
            report = self.machine.finish(t_end, self.setup_time)
            # The true count: a setup-only walk reports 0 queries rather
            # than masquerading as 1 (consumers guard their divisions via
            # ExecutionReport.per_query_*).
            report.queries = self.query_count
        return outputs, report

    def _run_block(self, block, env: _Env, t: float):
        """Execute a block; returns (terminator operand values, end time)."""
        for op in block.operations:
            if op.name in ("func.return", "scf.yield", "cim.yield"):
                return [env.get(v) for v in op.operands], t
            t = self._eval(op, env, t)
        return [], t

    # ---------------------------------------------------------- dispatcher
    def _eval(self, op: Operation, env: _Env, t: float) -> float:
        handler = _HANDLERS.get(op.name)
        if handler is None:
            raise ExecutionError(f"unsupported op in executor: {op.name}")
        return handler(self, op, env, t)

    def _require_machine(self, op: Operation) -> CamMachine:
        if self.machine is None:
            raise ExecutionError(
                f"{op.name} requires a CamMachine (host path cannot run "
                f"lowered cam IR)"
            )
        return self.machine

    def _program(self, op: Operation, method: str, *args):
        """Make one programming call on the machine and record it."""
        result = getattr(self._require_machine(op), method)(*args)
        self.programming.append((method, *args))
        return result


def _coerce_input(arg: Value, value) -> object:
    if isinstance(arg.type, (TensorType, MemRefType)):
        arr = np.asarray(value)
        if tuple(arr.shape) != tuple(arg.type.shape):
            raise ExecutionError(
                f"input shape {arr.shape} does not match {arg.type}"
            )
        return arr
    return value


# ---------------------------------------------------------------- handlers
_HANDLERS = {}


def _op(name):
    def wrap(fn):
        _HANDLERS[name] = fn
        return fn

    return wrap


# ----- arith ---------------------------------------------------------------
@_op("arith.constant")
def _arith_constant(ip, op, env, t):
    env.set(op.result, op.attributes["value"].value)
    return t


def _binary(fn):
    def handler(ip, op, env, t):
        a, b = env.get(op.operands[0]), env.get(op.operands[1])
        env.set(op.result, fn(a, b))
        return t

    return handler


_HANDLERS["arith.addi"] = _binary(lambda a, b: a + b)
_HANDLERS["arith.subi"] = _binary(lambda a, b: a - b)
_HANDLERS["arith.muli"] = _binary(lambda a, b: a * b)
_HANDLERS["arith.divsi"] = _binary(lambda a, b: a // b)
_HANDLERS["arith.remsi"] = _binary(lambda a, b: a % b)
_HANDLERS["arith.minsi"] = _binary(min)
_HANDLERS["arith.addf"] = _binary(lambda a, b: a + b)
_HANDLERS["arith.subf"] = _binary(lambda a, b: a - b)
_HANDLERS["arith.mulf"] = _binary(lambda a, b: a * b)
_HANDLERS["arith.divf"] = _binary(lambda a, b: a / b)


@_op("arith.sqrt")
def _arith_sqrt(ip, op, env, t):
    env.set(op.result, np.sqrt(env.get(op.operands[0])))
    return t


@_op("arith.cmpi")
def _arith_cmpi(ip, op, env, t):
    a, b = env.get(op.operands[0]), env.get(op.operands[1])
    pred = op.attributes["predicate"].value
    result = {
        "eq": a == b, "ne": a != b, "slt": a < b,
        "sle": a <= b, "sgt": a > b, "sge": a >= b,
    }[pred]
    env.set(op.result, bool(result))
    return t


@_op("arith.select")
def _arith_select(ip, op, env, t):
    cond = env.get(op.operands[0])
    env.set(op.result, env.get(op.operands[1 if cond else 2]))
    return t


@_op("arith.index_cast")
def _arith_index_cast(ip, op, env, t):
    env.set(op.result, int(env.get(op.operands[0])))
    return t


# ----- scf ------------------------------------------------------------------
@_op("scf.for")
def _scf_for(ip, op, env, t):
    lb = int(env.get(op.lower_bound))
    ub = int(env.get(op.upper_bound))
    step = int(env.get(op.step))
    carried = [env.get(v) for v in op.init_values]
    for iv in range(lb, ub, step):
        env.set(op.induction_var, iv)
        for arg, val in zip(op.iter_args, carried):
            env.set(arg, val)
        yielded, t = ip._run_block(op.body, env, t)
        carried = yielded
    for res, val in zip(op.results, carried):
        env.set(res, val)
    return t


@_op("scf.parallel")
def _scf_parallel(ip, op, env, t):
    lb = int(env.get(op.lower_bound))
    ub = int(env.get(op.upper_bound))
    step = int(env.get(op.step))
    t_end = t
    for iv in range(lb, ub, step):
        env.set(op.induction_var, iv)
        _yielded, t_iter = ip._run_block(op.body, env, t)
        t_end = max(t_end, t_iter)
    return t_end


@_op("scf.if")
def _scf_if(ip, op, env, t):
    cond = env.get(op.condition)
    block = op.then_block if cond else op.else_block
    yielded, t = ip._run_block(block, env, t)
    for res, val in zip(op.results, yielded):
        env.set(res, val)
    return t


# ----- memref ---------------------------------------------------------------
@_op("memref.alloc")
def _memref_alloc(ip, op, env, t):
    mtype = op.result.type
    dtype = np.int64 if str(mtype.element_type) == "i64" else np.float64
    env.set(op.result, np.zeros(mtype.shape, dtype=dtype))
    return t


@_op("memref.dealloc")
def _memref_dealloc(ip, op, env, t):
    return t


@_op("memref.copy")
def _memref_copy(ip, op, env, t):
    src, dst = env.get(op.operands[0]), env.get(op.operands[1])
    dst[...] = src
    return t


@_op("memref.fill")
def _memref_fill(ip, op, env, t):
    env.get(op.operands[0])[...] = op.attributes["value"].value
    return t


@_op("memref.to_memref")
def _memref_to_memref(ip, op, env, t):
    env.set(op.result, np.array(env.get(op.operands[0]), dtype=np.float64))
    return t


@_op("memref.to_tensor")
def _memref_to_tensor(ip, op, env, t):
    buf = np.array(env.get(op.operands[0]))
    ttype = op.result.type
    dtype = np.int64 if str(ttype.element_type) == "i64" else np.float32
    env.set(op.result, buf.reshape(ttype.shape).astype(dtype))
    return t


def _resolve_offsets(op, env):
    """Static/dynamic offsets of a subview/slice op."""
    offsets = []
    dyn = list(op.operands[1:])
    for off in (a.value for a in op.attributes["static_offsets"]):
        if off == -1:
            offsets.append(int(env.get(dyn.pop(0))))
        else:
            offsets.append(off)
    return offsets


@_op("memref.subview")
def _memref_subview(ip, op, env, t):
    src = env.get(op.operands[0])
    offsets = _resolve_offsets(op, env)
    sizes = [a.value for a in op.attributes["static_sizes"]]
    slices = tuple(slice(o, o + s) for o, s in zip(offsets, sizes))
    env.set(op.result, src[slices])
    return t


@_op("memref.load")
def _memref_load(ip, op, env, t):
    buf = env.get(op.operands[0])
    idx = tuple(int(env.get(v)) for v in op.operands[1:])
    env.set(op.result, buf[idx])
    return t


@_op("memref.store")
def _memref_store(ip, op, env, t):
    value = env.get(op.operands[0])
    buf = env.get(op.operands[1])
    idx = tuple(int(env.get(v)) for v in op.operands[2:])
    buf[idx] = value
    return t


# ----- tensor ---------------------------------------------------------------
@_op("tensor.empty")
def _tensor_empty(ip, op, env, t):
    ttype = op.result.type
    dtype = np.int64 if str(ttype.element_type) == "i64" else np.float32
    env.set(op.result, np.zeros(ttype.shape, dtype=dtype))
    return t


@_op("tensor.splat")
def _tensor_splat(ip, op, env, t):
    ttype = op.result.type
    env.set(op.result, np.full(ttype.shape, env.get(op.operands[0])))
    return t


@_op("tensor.extract_slice")
def _tensor_extract_slice(ip, op, env, t):
    src = env.get(op.operands[0])
    offsets = _resolve_offsets(op, env)
    sizes = [a.value for a in op.attributes["static_sizes"]]
    slices = tuple(slice(o, o + s) for o, s in zip(offsets, sizes))
    env.set(op.result, np.array(src[slices]))
    return t


@_op("tensor.insert_slice")
def _tensor_insert_slice(ip, op, env, t):
    src = env.get(op.operands[0])
    dest = np.array(env.get(op.operands[1]))
    offsets = [a.value for a in op.attributes["static_offsets"]]
    slices = tuple(
        slice(o, o + s) for o, s in zip(offsets, np.asarray(src).shape)
    )
    dest[slices] = src
    env.set(op.result, dest)
    return t


@_op("tensor.dim")
def _tensor_dim(ip, op, env, t):
    env.set(op.result, int(np.asarray(env.get(op.operands[0])).shape[op.dim]))
    return t


# ----- cam ------------------------------------------------------------------
@_op("cam.alloc_bank")
def _cam_alloc_bank(ip, op, env, t):
    env.set(op.result, ip._program(op, "alloc_bank"))
    return t


@_op("cam.alloc_mat")
def _cam_alloc_mat(ip, op, env, t):
    env.set(op.result, ip._program(op, "alloc_mat", env.get(op.operands[0])))
    return t


@_op("cam.alloc_array")
def _cam_alloc_array(ip, op, env, t):
    env.set(
        op.result, ip._program(op, "alloc_array", env.get(op.operands[0]))
    )
    return t


@_op("cam.alloc_subarray")
def _cam_alloc_subarray(ip, op, env, t):
    env.set(
        op.result, ip._program(op, "alloc_subarray", env.get(op.operands[0]))
    )
    return t


@_op("cam.subarray_ref")
def _cam_subarray_ref(ip, op, env, t):
    machine = ip._require_machine(op)
    lin = ip.subarray_base + int(env.get(op.operands[0]))
    if lin >= machine.subarrays_used:
        raise ExecutionError(
            f"cam.subarray_ref {lin} exceeds allocated "
            f"{machine.subarrays_used} subarrays"
        )
    env.set(op.result, lin)
    return t


@_op("cam.query_start")
def _cam_query_start(ip, op, env, t):
    machine = ip._require_machine(op)
    machine.begin_query()
    ip._flush_query_segment()
    ip._segment_batch = 1
    return t + machine.frontend_latency()


@_op("cam.write_value")
def _cam_write_value(ip, op, env, t):
    # A copy: the recorded tile must not follow later writes to the
    # walk's buffers.
    tile = np.array(env.get(op.operands[1]), dtype=np.float64)
    ip.setup_time += ip._program(
        op, "write_value", env.get(op.operands[0]), tile, op.row_offset,
        ip.setup_time,
    )
    return t


@_op("cam.search")
def _cam_search(ip, op, env, t):
    machine = ip._require_machine(op)
    query = np.asarray(env.get(op.operands[1]))
    if query.ndim > 1 and query.shape[0] > ip._segment_batch:
        ip._segment_batch = query.shape[0]
    duration = machine.search(
        env.get(op.operands[0]),
        query,
        search_type=op.search_type,
        metric=op.metric,
        row_begin=op.row_begin,
        row_count=op.row_count,
        accumulate=op.accumulate,
        at=t,
    )
    return t + duration


@_op("cam.read")
def _cam_read(ip, op, env, t):
    machine = ip._require_machine(op)
    values, indices, duration = machine.read_batch(
        env.get(op.operands[0]), op.rows, at=t
    )
    if values.shape[0] == 1:
        # Single-query latch bank: column-vector layout, as the
        # per-query merge nest expects.
        env.set(op.results[0], values[0].reshape(-1, 1))
    else:
        # Batched latch bank (QuerySession path): one row per query.
        env.set(op.results[0], values)
    env.set(op.results[1], indices.reshape(-1, 1))
    return t + duration


@_op("cam.merge_partial")
def _cam_merge_partial(ip, op, env, t):
    machine = ip._require_machine(op)
    acc = env.get(op.operands[0])
    partial = np.asarray(env.get(op.operands[1]))
    if op.num_operands > 2:
        offset = int(env.get(op.operands[2]))
    else:
        offset = op.row_offset
    batched = (
        acc.ndim == 2 and partial.ndim == 2
        and acc.shape[0] == partial.shape[0] and acc.shape[0] > 1
    )
    if not batched:
        # A single-query partial is a column vector (rows, 1); a (B>1,
        # rows>1) matrix is a batched latch bank that must not be
        # flattened into a per-query accumulator.
        if partial.ndim == 2 and partial.shape[0] > 1 and partial.shape[1] > 1:
            raise ExecutionError(
                f"cam.merge_partial: batched partial of {partial.shape[0]} "
                f"queries needs an accumulator with a matching batch "
                f"axis, got shape {acc.shape}"
            )
        acc = acc.reshape(-1)
        partial = partial.reshape(-1)
    n = min(partial.shape[-1], acc.shape[-1] - offset)
    n_queries = acc.shape[0] if batched else 1
    if n > 0:
        if op.direction == "horizontal":
            acc[..., offset : offset + n] += partial[..., :n]
        else:
            acc[..., offset : offset + n] = partial[..., :n]
    duration = machine.merge(op.level, max(n, 0), at=t, n_queries=n_queries)
    return t + duration


@_op("cam.sync")
def _cam_sync(ip, op, env, t):
    machine = ip._require_machine(op)
    # A batched walk streams every in-flight query through the hop.
    n_queries = max(ip._segment_batch, 1)
    return t + machine.merge(op.level, op.rows, at=t, n_queries=n_queries)


@_op("cam.select_topk")
def _cam_select_topk(ip, op, env, t):
    machine = ip._require_machine(op)
    scores = env.get(op.operands[0])
    if scores.ndim == 2 and scores.shape[0] > 1:
        # Batched score matrix (one row per query): per-query top-k.
        values, indices, duration = machine.select_topk_batch(
            scores, op.k, op.largest, at=t
        )
        env.get(op.operands[1])[:, : op.k] = values
        env.get(op.operands[2])[:, : op.k] = indices
        return t + duration
    values, indices, duration = machine.select_topk(
        scores.reshape(-1), op.k, op.largest, at=t
    )
    env.get(op.operands[1]).reshape(-1)[: op.k] = values
    env.get(op.operands[2]).reshape(-1)[: op.k] = indices
    return t + duration


# ----- torch (host reference) ----------------------------------------------
@_op("torch.constant.int")
def _torch_const_int(ip, op, env, t):
    env.set(op.result, op.attributes["value"].value)
    return t


@_op("torch.constant.bool")
def _torch_const_bool(ip, op, env, t):
    env.set(op.result, op.attributes["value"].value)
    return t


@_op("torch.aten.transpose.int")
def _torch_transpose(ip, op, env, t):
    env.set(
        op.result,
        host.transpose(env.get(op.operands[0]), op.dim0, op.dim1),
    )
    return t


def _host_matmul(ip, op, env, t):
    env.set(
        op.result, host.matmul(env.get(op.operands[0]), env.get(op.operands[1]))
    )
    return t


_HANDLERS["torch.aten.mm"] = _host_matmul
_HANDLERS["torch.aten.matmul"] = _host_matmul


@_op("torch.aten.sub")
def _torch_sub(ip, op, env, t):
    env.set(op.result, env.get(op.operands[0]) - env.get(op.operands[1]))
    return t


@_op("torch.aten.div")
def _torch_div(ip, op, env, t):
    out = env.get(op.operands[0])
    for divisor in op.operands[1:]:
        out = out / env.get(divisor)
    env.set(op.result, out)
    return t


@_op("torch.aten.norm")
def _torch_norm(ip, op, env, t):
    env.set(
        op.result,
        host.norm(
            env.get(op.operands[0]),
            op.attributes["p"].value,
            op.attributes["dim"].value,
            op.attributes["keepdim"].value,
        ),
    )
    return t


@_op("torch.aten.topk")
def _torch_topk(ip, op, env, t):
    values, indices = host.topk(
        env.get(op.operands[0]),
        op.attributes["k"].value,
        op.attributes["dim"].value,
        op.attributes["largest"].value,
    )
    env.set(op.results[0], values)
    env.set(op.results[1], indices)
    return t


# ----- cim (host reference path) --------------------------------------------
@_op("cim.acquire")
def _cim_acquire(ip, op, env, t):
    env.set(op.result, object())
    return t


@_op("cim.release")
def _cim_release(ip, op, env, t):
    return t


@_op("cim.execute")
def _cim_execute(ip, op, env, t):
    body = op.body
    for arg, v in zip(body.arguments, op.inputs):
        env.set(arg, env.get(v))
    yielded, t = ip._run_block(body, env, t)
    for res, val in zip(op.results, yielded):
        env.set(res, val)
    return t


@_op("cim.transpose")
def _cim_transpose(ip, op, env, t):
    env.set(
        op.result,
        host.transpose(
            env.get(op.operands[0]),
            op.attributes["dim0"].value,
            op.attributes["dim1"].value,
        ),
    )
    return t


@_op("cim.matmul")
def _cim_matmul(ip, op, env, t):
    env.set(
        op.result, host.matmul(env.get(op.operands[0]), env.get(op.operands[1]))
    )
    return t


@_op("cim.sub")
def _cim_sub(ip, op, env, t):
    env.set(op.result, env.get(op.operands[0]) - env.get(op.operands[1]))
    return t


@_op("cim.div")
def _cim_div(ip, op, env, t):
    out = env.get(op.operands[0])
    for divisor in op.operands[1:]:
        out = out / env.get(divisor)
    env.set(op.result, out)
    return t


@_op("cim.norm")
def _cim_norm(ip, op, env, t):
    env.set(
        op.result,
        host.norm(
            env.get(op.operands[0]),
            op.attributes["p"].value,
            op.attributes["dim"].value,
            op.attributes["keepdim"].value,
        ),
    )
    return t


@_op("cim.topk")
def _cim_topk(ip, op, env, t):
    values, indices = host.topk(
        env.get(op.operands[0]),
        op.attributes["k"].value,
        dim=-1,
        largest=op.attributes["largest"].value,
    )
    env.set(op.results[0], values)
    env.set(op.results[1], indices)
    return t


@_op("cim.similarity")
def _cim_similarity(ip, op, env, t):
    values, indices = host.similarity(
        op.metric,
        env.get(op.operands[0]),
        env.get(op.operands[1]),
        op.k,
        op.largest,
    )
    env.set(op.results[0], values.reshape(op.results[0].type.shape))
    env.set(op.results[1], indices.reshape(op.results[1].type.shape))
    return t


@_op("cim.score")
def _cim_score(ip, op, env, t):
    scores = host.similarity_scores(
        op.metric, env.get(op.operands[0]), env.get(op.operands[1])
    )
    env.set(op.result, scores.reshape(op.result.type.shape).astype(np.float32))
    return t


@_op("cim.merge_partial")
def _cim_merge_partial(ip, op, env, t):
    acc = np.array(env.get(op.operands[0]))
    partial = np.asarray(env.get(op.operands[1]))
    if op.direction == "horizontal":
        acc = acc + partial
    else:
        acc = np.concatenate([acc, partial], axis=0)
    env.set(op.result, acc)
    return t
