"""Print/parse round-trip tests, including nested regions and attributes."""

import pytest

from repro.dialects import arith as arith_d
from repro.dialects import cim as cim_d
from repro.dialects import func as func_d
from repro.dialects import scf as scf_d
from repro.dialects import torch as torch_d
from repro.ir.builder import OpBuilder
from repro.ir.module import ModuleOp
from repro.ir.parser import ParseError, parse_module, parse_operation
from repro.ir.printer import print_module
from repro.ir.types import FunctionType, TensorType, f32
from repro.ir.verifier import verify


def roundtrip(module):
    text = print_module(module)
    module2 = parse_module(text)
    verify(module2)
    assert print_module(module2) == text
    return module2


def test_empty_module_roundtrip():
    roundtrip(ModuleOp())


def test_function_with_args_roundtrip():
    m = ModuleOp()
    t = TensorType([10, 64], f32)
    f = func_d.FuncOp("forward", FunctionType([t], [t]))
    m.append(f)
    b = OpBuilder.at_end(f.body)
    b.create(func_d.ReturnOp, [f.arguments[0]])
    roundtrip(m)


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
    roundtrip(m)


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
    roundtrip(m)


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


def test_parse_single_operation():
    op = parse_operation('%0 = "arith.constant"() {value = 3 : i64} : () -> index')
    assert op.name == "arith.constant"
    assert op.attributes["value"].value == 3


def test_parse_undefined_value_rejected():
    with pytest.raises(ParseError):
        parse_operation('"arith.addi"(%x, %x) : (index, index) -> index')


def test_parse_operand_type_mismatch_rejected():
    text = (
        '"builtin.module"() ({\n'
        '  "func.func"() ({\n'
        '  ^bb0(%arg0: i32):\n'
        '    "func.return"(%arg0) : (i64) -> ()\n'
        '  }) {function_type = (i32) -> (), sym_name = "f"} : () -> ()\n'
        '}) : () -> ()'
    )
    with pytest.raises(ParseError):
        parse_module(text)


def test_parse_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_module('"builtin.module"() ({}) : () -> () extra')


def test_parse_result_count_mismatch():
    with pytest.raises(ParseError):
        parse_operation(
            '%0, %1 = "arith.constant"() {value = 1 : i64} : () -> index'
        )


def test_comments_skipped():
    text = (
        '// a leading comment\n'
        '"builtin.module"() ({\n'
        '  // inside\n'
        '}) : () -> ()'
    )
    m = parse_module(text)
    verify(m)


def test_string_attr_with_special_chars_roundtrip():
    m = ModuleOp()
    from repro.ir.operation import Operation

    m.append(Operation("test.op", attributes={"s": 'a "quoted", thing'}))
    text = print_module(m)
    m2 = parse_module(text)
    op2 = m2.body.operations[0]
    assert op2.attributes["s"].value == 'a "quoted", thing'
