"""Tests for the custom-serialization registry."""

import repro.upcxx as upcxx
from repro.upcxx import serialization as ser
from repro.upcxx.serialization import register_serialization, serializable_fields


@serializable_fields("key", "weight")
class _Edge:
    def __init__(self, key, weight):
        self.key = key
        self.weight = weight

    def __eq__(self, other):
        return (self.key, self.weight) == (other.key, other.weight)


class _Point:
    def __init__(self, x, y):
        self.x = x
        self.y = y


register_serialization(
    _Point,
    to_wire=lambda p: {"x": p.x, "y": p.y},
    from_wire=lambda d: _Point(d["x"], d["y"]),
)


class TestCustomSerialization:
    def test_fields_decorator_roundtrip(self):
        e = _Edge("ab", 2.5)
        out = ser.unpack(ser.pack(e))
        assert isinstance(out, _Edge)
        assert out == e

    def test_explicit_registration_roundtrip(self):
        p = _Point(3, 4)
        out = ser.unpack(ser.pack(p))
        assert isinstance(out, _Point)
        assert (out.x, out.y) == (3, 4)

    def test_nested_in_containers(self):
        obj = {"edges": [_Edge("a", 1.0), _Edge("b", 2.0)]}
        out = ser.unpack(ser.pack(obj))
        assert out["edges"][0] == _Edge("a", 1.0)

    def test_custom_classes_ship_through_rpc(self):
        def body():
            if upcxx.rank_me() == 0:
                got = upcxx.rpc(1, lambda e: e.weight * 2, _Edge("k", 21.0)).wait()
                assert got == 42.0
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_measure_covers_custom(self):
        e = _Edge("abc", 1.5)
        assert ser.measure(e) == len(ser.pack(e))
