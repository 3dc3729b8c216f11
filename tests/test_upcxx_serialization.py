"""Property and unit tests for the wire serialization format."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.upcxx import serialization as ser
from repro.upcxx.errors import SerializationError
from repro.upcxx.global_ptr import GlobalPtr
from repro.upcxx.view import View, make_view


class TestScalars:
    @pytest.mark.parametrize(
        "obj",
        [None, True, False, 0, -1, 2**62, -(2**62), 3.14159, float("inf"), "", "héllo", b"", b"bytes"],
    )
    def test_roundtrip(self, obj):
        assert ser.unpack(ser.pack(obj)) == obj

    def test_bigint(self):
        x = 2**200 + 17
        assert ser.unpack(ser.pack(x)) == x

    def test_nan(self):
        out = ser.unpack(ser.pack(float("nan")))
        assert out != out  # NaN


class TestContainers:
    def test_nested(self):
        obj = {"a": [1, 2, (3, "x")], "b": {"c": None}}
        assert ser.unpack(ser.pack(obj)) == obj

    def test_tuple_vs_list_preserved(self):
        assert isinstance(ser.unpack(ser.pack((1, 2))), tuple)
        assert isinstance(ser.unpack(ser.pack([1, 2])), list)

    def test_empty_containers(self):
        for obj in [(), [], {}]:
            assert ser.unpack(ser.pack(obj)) == obj


class TestNumpy:
    def test_array_roundtrip(self):
        a = np.arange(20.0).reshape(4, 5)
        b = ser.unpack(ser.pack(a))
        assert np.array_equal(a, b)
        assert b.dtype == a.dtype and b.shape == a.shape

    def test_dtypes(self):
        for dt in [np.int8, np.int32, np.int64, np.float32, np.float64, np.uint16]:
            a = np.array([1, 2, 3], dtype=dt)
            assert np.array_equal(ser.unpack(ser.pack(a)), a)

    def test_numpy_scalar_becomes_python(self):
        assert ser.unpack(ser.pack(np.int64(7))) == 7
        assert ser.unpack(ser.pack(np.float64(2.5))) == 2.5

    def test_noncontiguous_array(self):
        a = np.arange(20.0).reshape(4, 5)[:, ::2]
        assert np.array_equal(ser.unpack(ser.pack(a)), a)


class TestSpecialTypes:
    def test_global_ptr(self):
        p = GlobalPtr(3, 1024, np.float64, 17)
        q = ser.unpack(ser.pack(p))
        assert q == p

    def test_view_zero_copy(self):
        v = make_view(np.arange(10.0))
        out = ser.unpack(ser.pack(v))
        assert isinstance(out, View)
        assert np.array_equal(out.to_numpy(), np.arange(10.0))

    def test_dist_object_ref(self):
        r = ser.DistObjectRef(5, 7)
        assert ser.unpack(ser.pack(r)) == r

    def test_pickle_fallback(self):
        obj = complex(1, 2)
        assert ser.unpack(ser.pack(obj)) == obj

    def test_unserializable_raises(self):
        with pytest.raises(SerializationError):
            ser.pack(lambda x: x)  # local lambdas can't pickle


class TestMeasureAndCopyFree:
    def test_measure_matches_pack(self):
        obj = {"k": [1.0, 2.0, np.arange(5)]}
        assert ser.measure(obj) == len(ser.pack(obj))

    def test_view_bytes_counted_copy_free(self):
        v = make_view(np.arange(100.0))
        assert ser.copy_free_bytes(v) == 800
        assert ser.copy_free_bytes((1, v, [v])) == 1600
        assert ser.copy_free_bytes({"a": v}) == 800
        assert ser.copy_free_bytes(42) == 0

    def test_trailing_bytes_rejected(self):
        raw = ser.pack(1) + b"x"
        with pytest.raises(SerializationError):
            ser.unpack(raw)

    def test_truncated_rejected(self):
        raw = ser.pack("hello world")
        with pytest.raises(SerializationError):
            ser.unpack(raw[:-2])


# ------------------------------------------------------------- property tests
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)
_json_like = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=20,
)


@given(_json_like)
def test_roundtrip_property(obj):
    assert ser.unpack(ser.pack(obj)) == obj


@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=200))
def test_view_roundtrip_property(xs):
    v = make_view(np.asarray(xs))
    out = ser.unpack(ser.pack(v))
    assert np.array_equal(out.to_numpy(), np.asarray(xs))


@given(_json_like)
def test_measure_equals_len_pack(obj):
    assert ser.measure(obj) == len(ser.pack(obj))


# ------------------------------------------------------------ error contract
_wire_leaves = st.one_of(
    _scalars,
    st.integers(min_value=2**63, max_value=2**80),  # travels as a pickled bigint
    st.builds(
        GlobalPtr,
        st.integers(0, 63),
        st.integers(0, 2**40),
        st.sampled_from([np.uint8, np.int32, np.float64]),
        st.integers(0, 2**20),
        st.sampled_from(["host", "device"]),
    ),
    st.builds(ser.DistObjectRef, st.integers(0, 2**30), st.integers(0, 99)),
    st.lists(st.integers(-9, 9), max_size=6).map(lambda xs: np.asarray(xs, dtype=np.int16)),
    st.lists(st.floats(allow_nan=False), max_size=6).map(make_view),
    st.just(complex(1, 2)),  # the pickle fallback
)
_wire_objects = st.recursive(
    _wire_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)


@given(_wire_objects)
@example((GlobalPtr(3, 1024, np.float64, 17),))
def test_every_strict_prefix_and_every_extension_is_a_serialization_error(obj):
    """A malformed frame raises SerializationError and nothing else."""
    raw = ser.pack(obj)
    for cut in range(len(raw)):
        with pytest.raises(SerializationError):
            ser.unpack(raw[:cut])
    with pytest.raises(SerializationError):
        ser.unpack(raw + b"\0")


def test_unknown_tag_and_unregistered_custom_id_are_serialization_errors():
    for tag in (17, 200, 255):
        with pytest.raises(SerializationError):
            ser.unpack(bytes([tag]))
        with pytest.raises(SerializationError):
            ser.unpack(ser.pack((1, 2))[:-9] + bytes([tag]) + bytes(8))
    frame = bytes([16]) + (7).to_bytes(4, "little") + b"nowhere" + ser.pack(1)
    with pytest.raises(SerializationError, match="nowhere"):
        ser.unpack(frame)


class _Picky:
    def __init__(self, values):
        self.first = values[0]  # IndexError on an empty tuple: the user's, not a short read


ser.register_serialization(_Picky, to_wire=lambda p: (), from_wire=_Picky, type_id="test._Picky")


def test_errors_raised_by_user_from_wire_are_not_swallowed():
    raw = ser.pack([_Picky((1,))])
    with pytest.raises(IndexError):
        ser.unpack(raw)
    with pytest.raises(SerializationError):
        ser.unpack(raw[:-1])
