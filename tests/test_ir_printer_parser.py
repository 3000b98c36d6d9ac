"""Hand-built IR through the printer, ``Operation.clone`` and the verifier.

IR is printed (``c4cam --dump-ir``), never read back from text.  Each
module here verifies, survives a deep copy (the copy fusion and module
replicas are made by) printing byte for byte like the original, and
prints to pinned text where the text is short.  Malformed IR is
rejected where it is built or verified.
"""

import re
from pathlib import Path

import pytest

from repro.dialects import arith as arith_d
from repro.dialects import cim as cim_d
from repro.dialects import func as func_d
from repro.dialects import scf as scf_d
from repro.dialects import torch as torch_d
from repro.ir.builder import OpBuilder
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.printer import print_module, print_operation
from repro.ir.types import FunctionType, TensorType, f32, i32, i64, index
from repro.ir.verifier import VerificationError, verify

GOLDEN = Path(__file__).parent / "golden"


def roundtrip(module):
    """Verify ``module`` and its clone; the clone must print the same
    text and share no operation with the original."""
    verify(module)
    text = print_module(module)
    copy = module.clone()
    verify(copy)
    assert print_module(copy) == text
    assert {id(op) for op in copy.walk()}.isdisjoint(
        id(op) for op in module.walk()
    )
    return copy


def test_empty_module_roundtrip():
    m = ModuleOp()
    roundtrip(m)
    assert print_module(m) == '"builtin.module"() ({\n}) : () -> ()'


def test_function_with_args_roundtrip():
    m = ModuleOp()
    t = TensorType([10, 64], f32)
    f = func_d.FuncOp("forward", FunctionType([t], [t]))
    m.append(f)
    b = OpBuilder.at_end(f.body)
    b.create(func_d.ReturnOp, [f.arguments[0]])
    roundtrip(m)
    assert print_module(m) == "\n".join([
        '"builtin.module"() ({',
        '  "func.func"() ({',
        '  ^bb0(%arg0: tensor<10x64xf32>):',
        '    "func.return"(%arg0) : (tensor<10x64xf32>) -> ()',
        '  }) {function_type = (tensor<10x64xf32>) -> tensor<10x64xf32>, '
        'sym_name = "forward"} : () -> ()',
        '}) : () -> ()',
    ])


def test_torch_kernel_roundtrip():
    m = ModuleOp()
    t = TensorType([10, 64], f32)
    f = func_d.FuncOp("forward", FunctionType([t, t], []))
    m.append(f)
    b = OpBuilder.at_end(f.body)
    tr = b.create(torch_d.TransposeIntOp, f.arguments[1], -2, -1)
    mm = b.create(torch_d.MmOp, f.arguments[0], tr.result)
    k = b.create(torch_d.ConstantIntOp, 1)
    b.create(torch_d.TopkOp, mm.result, k.result, 1, largest=False)
    b.create(func_d.ReturnOp, [])
    copy = roundtrip(m)
    # The clone keeps each op's class, which passes dispatch on.
    assert [type(op) for op in copy.walk()] == [type(op) for op in m.walk()]


def test_nested_scf_roundtrip():
    m = ModuleOp()
    f = func_d.FuncOp("loops", FunctionType([], []))
    m.append(f)
    b = OpBuilder.at_end(f.body)
    c0 = b.create(arith_d.ConstantOp, 0)
    c4 = b.create(arith_d.ConstantOp, 4)
    c1 = b.create(arith_d.ConstantOp, 1)
    outer = b.create(scf_d.ParallelOp, c0.result, c4.result, c1.result)
    inner_b = OpBuilder.at_end(outer.body)
    inner = inner_b.create(scf_d.ForOp, c0.result, c4.result, c1.result)
    OpBuilder.at_end(inner.body).create(scf_d.YieldOp, [])
    inner_b.create(scf_d.YieldOp, [])
    b.create(func_d.ReturnOp, [])
    copy = roundtrip(m)
    # Operands defined outside the loops resolve to the clone's own
    # constants, not to the original's.
    inner2 = next(op for op in copy.walk() if isinstance(op, scf_d.ForOp))
    consts2 = [
        op for op in copy.walk() if isinstance(op, arith_d.ConstantOp)
    ]
    assert inner2.lower_bound is consts2[0].result


def test_cim_execute_region_roundtrip():
    m = ModuleOp()
    t = TensorType([10, 64], f32)
    f = func_d.FuncOp("k", FunctionType([t], []))
    m.append(f)
    b = OpBuilder.at_end(f.body)
    dev = b.create(cim_d.AcquireOp)
    ex = b.create(
        cim_d.ExecuteOp, dev.result, [f.arguments[0]],
        [TensorType([64, 10], f32)],
    )
    body = OpBuilder.at_end(ex.body)
    tr = body.create(cim_d.TransposeOp, ex.body.arguments[0])
    body.create(cim_d.YieldOp, [tr.result])
    b.create(cim_d.ReleaseOp, dev.result)
    b.create(func_d.ReturnOp, [])
    m2 = roundtrip(m)
    ex2 = [op for op in m2.walk() if op.name == "cim.execute"][0]
    assert isinstance(ex2, cim_d.ExecuteOp)
    assert ex2.body.arguments[0] is not ex.body.arguments[0]


def test_scf_if_two_regions_roundtrip():
    m = ModuleOp()
    f = func_d.FuncOp("g", FunctionType([], []))
    m.append(f)
    b = OpBuilder.at_end(f.body)
    c0 = b.create(arith_d.ConstantOp, 0)
    c1 = b.create(arith_d.ConstantOp, 1)
    cmp = b.create(arith_d.CmpIOp, "slt", c0.result, c1.result)
    if_op = b.create(scf_d.IfOp, cmp.result)
    OpBuilder.at_end(if_op.then_block).create(arith_d.ConstantOp, 7)
    b.create(func_d.ReturnOp, [])
    roundtrip(m)
    assert print_operation(if_op) == "\n".join([
        '"scf.if"(%0) ({',
        '  %1 = "arith.constant"() {value = 7 : i64} : () -> index',
        '}, {',
        '}) : (i1) -> ()',
    ])


def test_parse_single_operation():
    op = arith_d.ConstantOp(3)
    assert print_operation(op) == (
        '%0 = "arith.constant"() {value = 3 : i64} : () -> index'
    )
    assert op.attributes["value"].value == 3


def test_parse_undefined_value_rejected():
    m = ModuleOp()
    f1 = func_d.FuncOp("f1", FunctionType([], []))
    f2 = func_d.FuncOp("f2", FunctionType([], []))
    m.append(f1)
    m.append(f2)
    x = OpBuilder.at_end(f1.body).create(arith_d.ConstantOp, 1)
    # f2 adds a value only f1 defines.
    OpBuilder.at_end(f2.body).create(arith_d.AddIOp, x.result, x.result)
    with pytest.raises(VerificationError, match="not defined"):
        verify(m)


def test_parse_operand_type_mismatch_rejected():
    a = arith_d.ConstantOp(1, i32)
    b = arith_d.ConstantOp(1, i64)
    with pytest.raises(ValueError, match="operand types differ"):
        arith_d.AddIOp(a.result, b.result)


def test_parse_result_count_mismatch():
    m = ModuleOp()
    f = func_d.FuncOp("r", FunctionType([], []))
    m.append(f)
    b = OpBuilder.at_end(f.body)
    c = b.create(arith_d.ConstantOp, 1)
    # Built the way ``Operation.clone`` builds an op: the class's
    # verify hook, not its constructor, guards the result count.
    add = arith_d.AddIOp.__new__(arith_d.AddIOp)
    Operation.__init__(
        add, operands=[c.result, c.result], result_types=[index, index]
    )
    b.insert(add)
    with pytest.raises(VerificationError, match="one result"):
        verify(m)


def test_comments_skipped():
    """A dump holds no comments and no blank lines: every line is an
    op, a block label or a region delimiter."""
    line = re.compile(r'^ *(%|"|\^bb\d+\(|\}\)|\}, \{$)')
    for stage in ("torch", "cim", "cam"):
        for text in (GOLDEN / f"{stage}.mlir").read_text().splitlines():
            assert line.match(text) and "//" not in text, (stage, text)


def test_string_attr_with_special_chars_roundtrip():
    m = ModuleOp()
    m.append(Operation("test.op", attributes={"s": 'a "quoted", thing'}))
    copy = roundtrip(m)
    assert '{s = "a \\"quoted\\", thing"}' in print_module(m)
    op2 = copy.body.operations[0]
    assert op2.attributes["s"].value == 'a "quoted", thing'
