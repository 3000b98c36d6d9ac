"""Unit tests for the IR type system."""

import pytest

from repro.ir.attributes import TypeAttr
from repro.ir.types import (
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
    TensorType,
    f32,
    f64,
    i1,
    i32,
    i64,
    index,
    none,
)


class TestScalarTypes:
    def test_index_str(self):
        assert str(IndexType()) == "index"

    def test_integer_str(self):
        assert str(IntegerType(32)) == "i32"
        assert str(IntegerType(64)) == "i64"

    def test_integer_width_validation(self):
        with pytest.raises(ValueError):
            IntegerType(0)
        with pytest.raises(ValueError):
            IntegerType(-8)

    def test_float_str(self):
        assert str(FloatType(32)) == "f32"

    def test_float_width_validation(self):
        with pytest.raises(ValueError):
            FloatType(8)

    def test_bool_prints_as_i1(self):
        assert str(BoolType()) == "i1"

    def test_none_type(self):
        assert str(NoneType()) == "none"

    def test_structural_equality(self):
        assert IntegerType(32) == IntegerType(32)
        assert IntegerType(32) != IntegerType(64)
        assert FloatType(32) != IntegerType(32)
        assert IndexType() == IndexType()

    def test_hashable(self):
        s = {IntegerType(32), IntegerType(32), FloatType(32)}
        assert len(s) == 2

    def test_singletons_equal_fresh_instances(self):
        assert i32 == IntegerType(32)
        assert f32 == FloatType(32)
        assert index == IndexType()
        assert i1 == BoolType()


class TestShapedTypes:
    def test_tensor_str(self):
        assert str(TensorType([10, 8192], f32)) == "tensor<10x8192xf32>"

    def test_memref_str(self):
        assert str(MemRefType([10, 32], f32)) == "memref<10x32xf32>"

    def test_scalar_tensor(self):
        assert str(TensorType([], f32)) == "tensor<f32>"

    def test_dynamic_dim_str(self):
        assert str(TensorType([DYNAMIC, 4], f32)) == "tensor<?x4xf32>"

    def test_rank(self):
        assert TensorType([1, 2, 3], f32).rank == 3
        assert TensorType([], f32).rank == 0

    def test_num_elements(self):
        assert TensorType([10, 32], f32).num_elements() == 320

    def test_num_elements_dynamic_raises(self):
        with pytest.raises(ValueError):
            TensorType([DYNAMIC], f32).num_elements()

    def test_has_static_shape(self):
        assert TensorType([2, 2], f32).has_static_shape
        assert not TensorType([DYNAMIC], f32).has_static_shape

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            TensorType([-3], f32)

    def test_nested_shaped_element_rejected(self):
        with pytest.raises(ValueError):
            TensorType([2], TensorType([2], f32))

    def test_tensor_memref_not_equal(self):
        assert TensorType([2], f32) != MemRefType([2], f32)


class TestFunctionAndOpaqueTypes:
    def test_function_type_str_single_result(self):
        ft = FunctionType([i32, f32], [f32])
        assert str(ft) == "(i32, f32) -> f32"

    def test_function_type_str_multi_result(self):
        ft = FunctionType([i32], [f32, i64])
        assert str(ft) == "(i32) -> (f32, i64)"

    def test_device_handle(self):
        assert str(DeviceHandleType()) == "!cim.device"

    def test_cam_id_levels(self):
        for level in ("bank", "mat", "array", "subarray"):
            assert str(CamIdType(level)) == f"!cam.{level}_id"

    def test_cam_id_bad_level(self):
        with pytest.raises(ValueError):
            CamIdType("chip")

    def test_cam_id_equality(self):
        assert CamIdType("bank") == CamIdType("bank")
        assert CamIdType("bank") != CamIdType("mat")


#: Every type spelling the IR printer emits, keyed by its text.
SPELLINGS = {
    "index": index,
    "i1": i1,
    "i32": i32,
    "i64": i64,
    "f32": f32,
    "f64": f64,
    "none": none,
    "!cim.device": DeviceHandleType(),
    "!cam.bank_id": CamIdType("bank"),
    "!cam.subarray_id": CamIdType("subarray"),
    "tensor<10x8192xf32>": TensorType([10, 8192], f32),
    "memref<10x32xf32>": MemRefType([10, 32], f32),
    "tensor<f32>": TensorType([], f32),
    "tensor<?x4xf32>": TensorType([DYNAMIC, 4], f32),
}


class TestParseType:
    """The text of each type, pinned to the type it spells.  IR is
    printed (``c4cam --dump-ir``), never read back, so a spelling is
    checked against the constructed type, bare and as the ``TypeAttr``
    a ``function_type`` attribute prints through."""

    @pytest.mark.parametrize("text", list(SPELLINGS))
    def test_roundtrip(self, text):
        ty = SPELLINGS[text]
        assert str(ty) == text
        assert str(TypeAttr(ty)) == text

    def test_function_type_roundtrip(self):
        ft = FunctionType(
            [TensorType([10, 8192], f32), i64],
            [TensorType([10, 1], f32), TensorType([10, 1], i64)],
        )
        assert str(ft) == (
            "(tensor<10x8192xf32>, i64) -> (tensor<10x1xf32>, tensor<10x1xi64>)"
        )

    def test_function_type_single_result(self):
        assert str(FunctionType([i32], [f32])) == "(i32) -> f32"

    def test_nested_function_result(self):
        ft = FunctionType([], [])
        assert ft.inputs == () and ft.results == ()
        assert str(ft) == "() -> ()"

    def test_garbage_raises(self):
        with pytest.raises(ValueError, match="invalid element type"):
            TensorType([3], "wibble")

    def test_whitespace_tolerated(self):
        """Spellings carry fixed whitespace: one space after each comma
        and around ``->``, none inside a shaped type."""
        ft = FunctionType([TensorType([2, 3], f32), i32], [i64, index])
        assert str(ft) == "(tensor<2x3xf32>, i32) -> (i64, index)"
        for text in SPELLINGS:
            assert text == text.strip() and "  " not in text
            if text.startswith(("tensor<", "memref<")):
                assert " " not in text
