"""Unit tests for Values, Operations, Blocks and Regions."""

import importlib

import pytest

from repro.dialects import arith as arith_d
from repro.dialects import func as func_d
from repro.ir.block import Block, Region
from repro.ir.builder import OpBuilder
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation
from repro.ir.printer import print_operation
from repro.ir.types import FunctionType, f32, index
from repro.ir.value import BlockArgument, OpResult
from repro.ir.verifier import verify


def make_func(in_types=(), out_types=()):
    m = ModuleOp()
    f = func_d.FuncOp("test", FunctionType(list(in_types), list(out_types)))
    m.append(f)
    return m, f


class TestOperationBasics:
    def test_generic_construction(self):
        op = Operation("foo.bar", result_types=[index])
        assert op.name == "foo.bar"
        assert op.dialect == "foo"
        assert op.num_results == 1
        assert isinstance(op.results[0], OpResult)

    def test_requires_name(self):
        with pytest.raises(ValueError):
            Operation()

    def test_single_result_property(self):
        op = Operation("t.x", result_types=[index])
        assert op.result is op.results[0]

    def test_result_property_multi_raises(self):
        op = Operation("t.x", result_types=[index, index])
        with pytest.raises(ValueError):
            _ = op.result

    def test_operand_type_check(self):
        with pytest.raises(TypeError):
            Operation("t.x", operands=["not a value"])

    def test_attributes_coerced(self):
        op = Operation("t.x", attributes={"n": 3, "s": "hi"})
        assert op.attributes["n"].value == 3
        assert op.attributes["s"].value == "hi"


class TestUseLists:
    def test_uses_tracked(self):
        c = arith_d.ConstantOp(1)
        add = arith_d.AddIOp(c.result, c.result)
        assert len(c.result.uses) == 2
        assert list(c.result.users()) == [add]

    def test_replace_all_uses_with(self):
        a = arith_d.ConstantOp(1)
        b = arith_d.ConstantOp(2)
        add = arith_d.AddIOp(a.result, a.result)
        a.result.replace_all_uses_with(b.result)
        assert not a.result.has_uses
        assert add.operands[0] is b.result
        assert add.operands[1] is b.result

    def test_replace_with_self_is_noop(self):
        a = arith_d.ConstantOp(1)
        arith_d.AddIOp(a.result, a.result)
        a.result.replace_all_uses_with(a.result)
        assert len(a.result.uses) == 2

    def test_set_operand(self):
        a = arith_d.ConstantOp(1)
        b = arith_d.ConstantOp(2)
        add = arith_d.AddIOp(a.result, a.result)
        add.set_operand(0, b.result)
        assert add.operands[0] is b.result
        assert len(a.result.uses) == 1

    def test_drop_all_operands(self):
        a = arith_d.ConstantOp(1)
        add = arith_d.AddIOp(a.result, a.result)
        add.drop_all_operands()
        assert add.num_operands == 0
        assert not a.result.has_uses


class TestErasure:
    def test_erase_with_uses_raises(self):
        m, f = make_func()
        b = OpBuilder.at_end(f.body)
        c = b.create(arith_d.ConstantOp, 1)
        b.create(arith_d.AddIOp, c.result, c.result)
        with pytest.raises(RuntimeError):
            c.erase()

    def test_erase_removes_from_block(self):
        m, f = make_func()
        b = OpBuilder.at_end(f.body)
        c = b.create(arith_d.ConstantOp, 1)
        assert len(f.body) == 1
        c.erase()
        assert len(f.body) == 0
        assert c.parent_block is None

    def test_replace_with(self):
        m, f = make_func()
        b = OpBuilder.at_end(f.body)
        c1 = b.create(arith_d.ConstantOp, 1)
        c2 = b.create(arith_d.ConstantOp, 2)
        add = b.create(arith_d.AddIOp, c1.result, c1.result)
        add.replace_with([c2.result])
        assert add.parent_block is None

    def test_replace_with_count_mismatch(self):
        c = arith_d.ConstantOp(1)
        with pytest.raises(ValueError):
            c.replace_with([])


class TestMovement:
    def test_move_before(self):
        m, f = make_func()
        b = OpBuilder.at_end(f.body)
        c1 = b.create(arith_d.ConstantOp, 1)
        c2 = b.create(arith_d.ConstantOp, 2)
        c2.move_before(c1)
        assert f.body.operations == [c2, c1]

    def test_move_after(self):
        m, f = make_func()
        b = OpBuilder.at_end(f.body)
        c1 = b.create(arith_d.ConstantOp, 1)
        c2 = b.create(arith_d.ConstantOp, 2)
        c1.move_after(c2)
        assert f.body.operations == [c2, c1]


class TestBlocksAndRegions:
    def test_block_arguments(self):
        blk = Block([index, f32])
        assert len(blk.arguments) == 2
        assert isinstance(blk.arguments[0], BlockArgument)
        assert blk.arguments[1].type == f32

    def test_add_argument(self):
        blk = Block()
        arg = blk.add_argument(index)
        assert arg.index == 0 and arg.block is blk

    def test_double_adoption_rejected(self):
        blk1, blk2 = Block(), Block()
        op = arith_d.ConstantOp(1)
        blk1.append(op)
        with pytest.raises(RuntimeError):
            blk2.append(op)

    def test_region_entry_block(self):
        r = Region()
        with pytest.raises(ValueError):
            _ = r.entry_block
        blk = r.append(Block())
        assert r.entry_block is blk

    def test_parent_chain(self):
        m, f = make_func()
        b = OpBuilder.at_end(f.body)
        c = b.create(arith_d.ConstantOp, 1)
        assert c.parent_block is f.body
        assert c.parent_op is f
        assert f.parent_op is m

    def test_terminator_detection(self):
        m, f = make_func()
        b = OpBuilder.at_end(f.body)
        assert f.body.terminator is None
        b.create(func_d.ReturnOp, [])
        assert f.body.terminator is not None


class TestWalkAndClone:
    def test_walk_preorder(self):
        m, f = make_func()
        b = OpBuilder.at_end(f.body)
        b.create(arith_d.ConstantOp, 1)
        names = [op.name for op in m.walk()]
        assert names == ["builtin.module", "func.func", "arith.constant"]

    def test_walk_postorder(self):
        m, f = make_func()
        b = OpBuilder.at_end(f.body)
        b.create(arith_d.ConstantOp, 1)
        names = [op.name for op in m.walk(post_order=True)]
        assert names == ["arith.constant", "func.func", "builtin.module"]

    def test_clone_is_deep(self):
        m, f = make_func()
        b = OpBuilder.at_end(f.body)
        c = b.create(arith_d.ConstantOp, 1)
        b.create(arith_d.AddIOp, c.result, c.result)
        m2 = m.clone()
        ops = list(m2.walk())
        assert len(ops) == len(list(m.walk()))
        for o1, o2 in zip(m.walk(), m2.walk()):
            assert o1.name == o2.name
            assert o1 is not o2 or o1 is m  # all distinct
        # mutating the clone leaves the original intact
        clone_add = [o for o in m2.walk() if o.name == "arith.addi"][0]
        clone_add.erase()
        assert any(o.name == "arith.addi" for o in m.walk())

    def test_clone_remaps_internal_uses(self):
        m, f = make_func()
        b = OpBuilder.at_end(f.body)
        c = b.create(arith_d.ConstantOp, 1)
        b.create(arith_d.AddIOp, c.result, c.result)
        m2 = m.clone()
        c2, add2 = list(m2.functions())[0].body.operations
        assert add2.operands[0] is c2.result


def dialect_op_classes():
    """``(dialect module name, op class)`` for every op class the
    dialect modules define."""
    modules = [
        importlib.import_module(f"repro.dialects.{name}")
        for name in ("arith", "cam", "cim", "func", "memref", "scf",
                     "tensor", "torch")
    ]
    return [
        (module.__name__.rsplit(".", 1)[1], cls)
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Operation)
        and cls.__module__ == module.__name__ and cls.OP_NAME
    ]


class TestRegistry:
    """Op names and op classes.  No registry maps a name to a class:
    builders construct the class, passes dispatch on it and the printer
    prints its ``OP_NAME``, so every class must carry a unique dotted
    name under its own dialect."""

    def test_lookup_registered(self):
        classes = {cls.OP_NAME: cls for _d, cls in dialect_op_classes()}
        assert classes["arith.constant"] is arith_d.ConstantOp
        op = arith_d.ConstantOp(3)
        assert op.name == "arith.constant" and op.dialect == "arith"

    def test_lookup_unknown_returns_generic(self):
        op = Operation("nope.nope", result_types=[index])
        assert type(op) is Operation and op.dialect == "nope"
        verify(op)
        assert print_operation(op) == '%0 = "nope.nope"() : () -> index'

    def test_duplicate_registration_rejected(self):
        names = [cls.OP_NAME for _d, cls in dialect_op_classes()]
        assert names and len(names) == len(set(names))

    def test_register_requires_dotted_name(self):
        for dialect, cls in dialect_op_classes():
            prefix, dot, rest = cls.OP_NAME.partition(".")
            assert (prefix, dot) == (dialect, "."), cls
            assert rest, cls


class TestModuleOp:
    def test_lookup_symbol(self):
        m, f = make_func()
        assert m.lookup_symbol("test") is f
        assert m.lookup_symbol("missing") is None

    def test_functions_iterator(self):
        m, f = make_func()
        assert list(m.functions()) == [f]
