"""Unit tests for attributes and their printed spellings."""

import pytest

from repro.ir.attributes import (
    ArrayAttr,
    BoolAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
    as_attribute,
)
from repro.ir.operation import Operation
from repro.ir.printer import print_operation
from repro.ir.types import TensorType, f32


class TestAttributeKinds:
    def test_integer(self):
        a = IntegerAttr(42)
        assert a.value == 42
        assert str(a) == "42 : i64"

    def test_integer_width(self):
        assert str(IntegerAttr(7, 32)) == "7 : i32"

    def test_negative_integer(self):
        assert str(IntegerAttr(-2)) == "-2 : i64"

    def test_float(self):
        a = FloatAttr(1.5, 32)
        assert a.value == 1.5
        assert str(a) == "1.5 : f32"

    def test_bool(self):
        assert str(BoolAttr(True)) == "true"
        assert str(BoolAttr(False)) == "false"

    def test_string(self):
        assert str(StringAttr("forward")) == '"forward"'

    def test_string_escaping(self):
        assert str(StringAttr('a"b')) == '"a\\"b"'

    def test_type_attr(self):
        assert str(TypeAttr(TensorType([2], f32))) == "tensor<2xf32>"

    def test_array(self):
        a = ArrayAttr([IntegerAttr(1), IntegerAttr(2)])
        assert len(a) == 2
        assert str(a) == "[1 : i64, 2 : i64]"
        assert [e.value for e in a] == [1, 2]

    def test_array_rejects_non_attribute(self):
        with pytest.raises(TypeError):
            ArrayAttr([1, 2])

    def test_symbol_ref(self):
        assert str(SymbolRefAttr("main")) == "@main"

    def test_unit(self):
        assert str(UnitAttr()) == "unit"

    def test_equality_and_hash(self):
        assert IntegerAttr(1) == IntegerAttr(1)
        assert IntegerAttr(1) != IntegerAttr(2)
        assert IntegerAttr(1) != FloatAttr(1.0)
        assert len({StringAttr("x"), StringAttr("x")}) == 1


class TestAsAttribute:
    def test_passthrough(self):
        a = IntegerAttr(3)
        assert as_attribute(a) is a

    def test_bool_before_int(self):
        assert isinstance(as_attribute(True), BoolAttr)

    def test_int(self):
        assert as_attribute(5) == IntegerAttr(5)

    def test_float(self):
        assert as_attribute(2.5) == FloatAttr(2.5)

    def test_str(self):
        assert as_attribute("hi") == StringAttr("hi")

    def test_type(self):
        assert as_attribute(f32) == TypeAttr(f32)

    def test_sequence(self):
        a = as_attribute([1, 2])
        assert isinstance(a, ArrayAttr)

    def test_unsupported(self):
        with pytest.raises(TypeError):
            as_attribute(object())


#: Every attribute spelling the IR printer emits, keyed by its text.
SPELLINGS = {
    "42 : i64": IntegerAttr(42),
    "-2 : i64": IntegerAttr(-2),
    "1.5 : f32": FloatAttr(1.5, 32),
    "true": BoolAttr(True),
    "false": BoolAttr(False),
    '"forward"': StringAttr("forward"),
    "@main": SymbolRefAttr("main"),
    "[1 : i64, 2 : i64]": ArrayAttr([IntegerAttr(1), IntegerAttr(2)]),
    "unit": UnitAttr(),
    "[]": ArrayAttr([]),
}


class TestParseAttribute:
    """The text of each attribute, pinned to the attribute it spells.
    IR is printed (``c4cam --dump-ir``), never read back, so a spelling
    is checked against the constructed attribute, bare and inside the
    attribute dictionary of a printed op."""

    @pytest.mark.parametrize("text", list(SPELLINGS))
    def test_roundtrip(self, text):
        attr = SPELLINGS[text]
        assert str(attr) == text
        op = Operation("test.op", attributes={"a": attr})
        assert print_operation(op) == f'"test.op"() {{a = {text}}} : () -> ()'

    def test_nested_array(self):
        attr = ArrayAttr([ArrayAttr([IntegerAttr(1)]), ArrayAttr([IntegerAttr(2)])])
        assert str(attr) == "[[1 : i64], [2 : i64]]"
        assert as_attribute([[1], [2]]) == attr

    def test_string_with_comma(self):
        assert str(StringAttr("a,b")) == '"a,b"'
        assert as_attribute("a,b") == StringAttr("a,b")

    def test_garbage(self):
        with pytest.raises(TypeError, match="cannot convert"):
            as_attribute([1, object()])

    def test_string_escapes_quote_and_backslash(self):
        attr = StringAttr('say "hi", then \\')
        assert str(attr) == r'"say \"hi\", then \\"'
