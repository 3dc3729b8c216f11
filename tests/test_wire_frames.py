"""The wire format itself, pinned byte for byte.

``tests/golden/wire_frames.json`` holds the frame ``pack()`` emitted for
every object of :func:`corpus` — a seeded generator covering every tag —
when the file was written.  The sim digests pin frame *lengths*; this pins
contents: ``pack(obj)`` must reproduce the committed bytes and
``unpack(frame)`` must give the object back, container types included.

The file is append-only::

    PYTHONPATH=src python -m tests.test_wire_frames

adds frames for corpus entries it does not hold yet (a new wire type is one
encoder, one decoder and one entry here) and never rewrites an existing one.

Entries with ``pickle_at`` carry a pickle payload (bigint, fallback) from
that byte offset on.  Pickle output belongs to the interpreter, so on a
Python other than the ``python`` the file records, those entries are held to
the bytes before the payload — tag and length header — and to the round
trip; everywhere else, and for every other entry, to every byte.
"""

import enum
import json
import os
import pickle
import random
import struct
import sys
from collections import OrderedDict, namedtuple
from fractions import Fraction

import numpy as np

from repro.upcxx import serialization as ser
from repro.upcxx.global_ptr import GlobalPtr
from repro.upcxx.view import View, make_view

PATH = os.path.join(os.path.dirname(__file__), "golden", "wire_frames.json")
_PYTHON = "%d.%d" % sys.version_info[:2]
_NOTE = (
    "pack() output per corpus entry of tests/test_wire_frames.py; append-only. An entry with "
    "pickle_at holds a pickle payload from that byte offset on: exact on the Python recorded "
    "here, elsewhere pinned up to that offset (tag and length header) and by round trip."
)


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 7


Stamp = namedtuple("Stamp", "key version")


class Edge:
    def __init__(self, key, weight):
        self.key = key
        self.weight = weight

    def __eq__(self, other):
        return type(other) is Edge and (self.key, self.weight) == (other.key, other.weight)


# an explicit id: the frame must not depend on how this module was imported
ser.register_serialization(
    Edge,
    to_wire=lambda e: (e.key, e.weight),
    from_wire=lambda values: Edge(*values),
    type_id="wire_frames.Edge",
)

_DTYPES = ("uint8", "int16", "int32", "int64", "float32", "float64", "complex128", "bool", ">i4")


# Only ``Random.random()`` is promised to repeat across Python versions, so
# every draw below is made from it.
def _below(rng, n):
    return int(rng.random() * n)


def _pick(rng, seq):
    return seq[_below(rng, len(seq))]


def _rand_int(rng):
    x = ((_below(rng, 1 << 32) << 31) | _below(rng, 1 << 31)) >> _pick(rng, (0, 1, 30, 32, 55, 59))
    return _pick(rng, (x, -x, 2**63 - 1 - (x & 1), -(2**63) + (x & 1)))


def _rand_text(rng):
    return "".join(_pick(rng, "abcXYZ 09_é→Ω漢🙂") for _ in range(_below(rng, 12)))


def _rand_bytes(rng):
    return bytes(_below(rng, 256) for _ in range(_below(rng, 20)))


def _rand_array(rng):
    shape = tuple(_below(rng, 4) for _ in range(1 + _below(rng, 3)))
    cells = [_below(rng, 100) for _ in range(int(np.prod(shape)))]
    return np.array(cells).astype(_pick(rng, _DTYPES)).reshape(shape)


def _rand_leaf(rng):
    kind = _below(rng, 12)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind in (2, 3):
        return _rand_int(rng)
    if kind == 4:
        return _pick(rng, (rng.random(), -1e6 * rng.random(), float(_below(rng, 100)), 5e-324))
    if kind == 5:
        return _rand_text(rng)
    if kind == 6:
        return _rand_bytes(rng)
    if kind == 7:
        return _rand_array(rng)
    if kind == 8:
        return make_view(_rand_array(rng).ravel())
    if kind == 9:
        return GlobalPtr(
            _below(rng, 1 << 16),
            _below(rng, 1 << 40),
            np.dtype(_pick(rng, _DTYPES)),
            _below(rng, 1 << 20),
            _pick(rng, ("host", "device")),
        )
    if kind == 10:
        return ser.DistObjectRef(_below(rng, 1 << 30), _below(rng, 1 << 10))
    return Edge(_rand_text(rng), rng.random())


def _rand_key(rng):
    kind = _below(rng, 4)
    if kind == 0:
        return _rand_int(rng)
    if kind == 1:
        return _rand_bytes(rng)
    if kind == 2:
        return (_below(rng, 9), _rand_text(rng))
    return _rand_text(rng)


def _rand_obj(rng, depth):
    """A random object whose containers nest at most ``depth`` deep."""
    if depth == 0 or rng.random() < 0.3:
        return _rand_leaf(rng)
    shape = _below(rng, 3)
    n = _below(rng, 5)
    if shape == 2:
        return {_rand_key(rng): _rand_obj(rng, depth - 1) for _ in range(n)}
    items = [_rand_obj(rng, depth - 1) for _ in range(n)]
    return tuple(items) if shape == 0 else items


_SAME = object()


def corpus():
    """``[(name, obj, expect, pickled)]``: ``unpack(pack(obj))`` must equal
    ``expect`` (``obj`` itself unless the type travels as another);
    ``pickled`` is the first leaf that travels as a pickle payload, if any."""
    cases = []

    def case(name, obj, expect=_SAME, pickled=None):
        cases.append((name, obj, obj if expect is _SAME else expect, pickled))

    # ---- scalars, one frame each
    case("none", None)
    case("true", True)
    case("false", False)
    for x in (0, 1, -1, 255, 2**31, -(2**31) - 1, 2**62, 2**63 - 1, -(2**63)):
        case(f"int {x}", x)
    for x in (2**63, -(2**63) - 1, 2**64, 2**200 + 17, -(10**40)):
        case(f"bigint {x}", x, pickled=x)
    for x in (0.0, -0.0, 2.5, -1e300, 5e-324, float("inf"), float("-inf"), float("nan")):
        case(f"float {x!r}", x)
    for s in ("", "key", "héllo", "漢字 and 🙂", "x" * 300):
        case(f"str {s[:12]!r}/{len(s)}", s)
    for b in (b"", b"\x00", b"bytes", bytes(range(256))):
        case(f"bytes {len(b)}", b)
    case("bytearray", bytearray(b"mutable \xff"), b"mutable \xff")
    case("bytearray empty", bytearray(), b"")
    case("memoryview", memoryview(b"window"), b"window")
    case("memoryview slice", memoryview(b"0123456789")[2:7], b"23456")

    # ---- types that travel as their wire base type
    case("IntEnum", Colour.BLUE, 7)
    case("namedtuple", Stamp("k", 3), ("k", 3))
    case("OrderedDict", OrderedDict(b=1, a=2), {"b": 1, "a": 2})
    case("IntEnum in tuple", (Colour.RED, Colour.BLUE), (1, 7))
    case("namedtuple in list", [Stamp(b"k", 2**40)], [(b"k", 2**40)])
    case("np.int64", np.int64(-7), -7)
    case("np.uint8", np.uint8(200), 200)
    case("np.uint64 beyond int64", np.uint64(2**63 + 5), 2**63 + 5, pickled=2**63 + 5)
    case("np.float32", np.float32(0.5), 0.5)
    case("np.float64", np.float64(2.5), 2.5)
    case("np.bool_", np.bool_(True), True)
    case("np.str_", np.str_("numpy text"), "numpy text")
    case("np.generic in tuple", (np.int32(3), np.float64(1.5)), (3, 1.5))

    # ---- containers
    case("tuple empty", ())
    case("list empty", [])
    case("dict empty", {})
    case("scalars tuple", (7, 2.5, "key", True, None, 1 << 40))
    case("flat tuple every scalar", (None, True, False, -3, 0.25, "s", b"b"))
    case("tuple of pairs", ((b"key", 4), (None, 2.0), ("a", False)))
    case("int at boundary in tuple", (2**63 - 1, -(2**63), 0))
    case("bigint last in tuple", (1, "a", 2**63), pickled=2**63)
    case("bigint mid tuple", (1, 2**64, "after"), pickled=2**64)
    case("bigint in nested tuple", (1, (2, -(2**63) - 1)), pickled=-(2**63) - 1)
    case("bigint dict key", {2**70: "v"}, pickled=2**70)
    case("nested", ({"k": [1, 2, 3], "v": (4.5, "x")}, [(1, 2), (3, 4)], {"a": {"b": 1}}))
    case("three deep", [({"a": [(1, [2.0, ("x", {b"k": None})])]},)])
    case("list of lists", [[], [[]], [[[1]]]])
    case("dict mixed keys", {1: "int", "s": b"str", b"b": 2.0, (1, "t"): None, None: [True]})
    case("kv batch", [(k * 2654435761 % 2**40, k, float(k)) for k in range(80)])

    # ---- numpy arrays and views
    case("ndarray 1d", np.arange(5, dtype=np.int64))
    case("ndarray 2d", np.arange(20.0).reshape(4, 5))
    case("ndarray 3d f32", np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    case("ndarray non-contiguous", np.arange(20.0).reshape(4, 5)[:, ::2])
    case("ndarray transposed", np.arange(6, dtype=np.int16).reshape(2, 3).T)
    case("ndarray 0-d", np.array(3.5))
    case("ndarray empty", np.zeros(0, dtype=np.float64))
    case("ndarray empty 2d", np.zeros((3, 0), dtype=np.uint8))
    case("ndarray bool", np.array([True, False, True]))
    case("ndarray complex", np.array([1 + 2j, -3.5j]))
    case("ndarray big-endian", np.arange(4, dtype=">i4"))
    case("ndarray in dict", {"m": np.eye(2), "n": [np.arange(3)]})
    case("view", make_view(np.arange(10.0)))
    case("view int32", make_view(np.arange(7, dtype=np.int32)))
    case("view empty", make_view(np.zeros(0)))
    case("view of list", make_view([1, 2, 3]))
    case("view in tuple", (3, make_view(np.arange(4.0)), "tail"))
    case("views in list in tuple", (0, [make_view(np.ones(2)), make_view(np.arange(3, dtype=np.uint8))]))

    # ---- pointers, references, registered classes, the pickle fallback
    case("gptr host", GlobalPtr(3, 1024, np.float64, 17))
    case("gptr device", GlobalPtr(0, 0, np.uint8, 0, "device"))
    case("gptr null", GlobalPtr(-1, 0))
    case("gptr in tuple", (GlobalPtr(3, 1024, np.float64, 17),))
    case("gptr and ints", (GlobalPtr(63, 1 << 33, np.int32, 9, "device"), 5, -1))
    case("distref", ser.DistObjectRef(5, 7))
    case("distref and int", (ser.DistObjectRef(1, 0), 42))
    case("custom", Edge("ab", 2.5))
    case("custom nested", {"edges": [Edge("a", 1.0), Edge("b", 2.0)]})
    case("custom holding custom", Edge(Edge("in", 0.0), 1.0))
    for obj in (complex(1, 2), Fraction(3, 4), range(1, 10, 3), frozenset({2})):
        case(f"pickle {type(obj).__name__}", obj, pickled=obj)
    case("pickle in tuple", ("before", complex(0, -1)), pickled=complex(0, -1))

    # ---- seeded random objects, containers up to three deep
    rng = random.Random(20211)
    for i in range(160):
        case(f"random {i}", _rand_obj(rng, 3))
    return cases


def same(a, b):
    """Equality that also holds container and array types to account."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            same(ka, kb) and same(va, vb) for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    if isinstance(a, View):
        return same(a.to_numpy(), b.to_numpy())
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)  # NaN, -0.0
    if isinstance(a, Edge):
        return same(a.key, b.key) and same(a.weight, b.weight)
    return a == b


def _committed():
    with open(PATH) as fh:
        return json.load(fh)


def test_corpus_and_file_hold_the_same_entries():
    names = [name for name, *_ in corpus()]
    assert len(names) == len(set(names)) >= 200
    assert list(_committed()["frames"]) == names


def test_corpus_reaches_every_tag():
    frames = _committed()["frames"]
    top = {bytes.fromhex(e["frame"])[0] for e in frames.values()}
    assert top == set(range(17))


def test_pack_reproduces_the_committed_frames():
    doc = _committed()
    wrong = []
    for name, obj, _expect, _pickled in corpus():
        entry = doc["frames"][name]
        want = bytes.fromhex(entry["frame"])
        got = ser.pack(obj)
        if doc["python"] != _PYTHON and "pickle_at" in entry:  # not this interpreter's pickle
            held = entry["pickle_at"]
            got, want = got[:held], want[:held]
        if got != want:
            wrong.append(name)
    assert wrong == []


def test_unpack_of_committed_and_fresh_frames_gives_the_object_back():
    frames = _committed()["frames"]
    wrong = []
    for name, obj, expect, _pickled in corpus():
        committed = ser.unpack(bytes.fromhex(frames[name]["frame"]))
        fresh = ser.unpack(ser.pack(obj))
        if not (same(committed, expect) and same(fresh, expect)):
            wrong.append(name)
    assert wrong == []


def test_view_decodes_zero_copy_over_the_received_buffer():
    frame = ser.pack((1, make_view(np.arange(4.0))))
    view = ser.unpack(frame)[1]
    assert np.shares_memory(view.to_numpy(), np.frombuffer(frame, np.uint8))


def _append_new_frames():
    doc = _committed() if os.path.exists(PATH) else {"note": _NOTE, "python": _PYTHON, "frames": {}}
    if doc["python"] != _PYTHON:
        raise SystemExit(f"{PATH} was written by Python {doc['python']}; add frames with that one")
    added = 0
    for name, obj, _expect, pickled in corpus():
        if name in doc["frames"]:
            continue
        frame = ser.pack(obj)
        entry = {"frame": frame.hex()}
        if pickled is not None:
            entry["pickle_at"] = frame.index(pickle.dumps(pickled, protocol=pickle.HIGHEST_PROTOCOL))
        doc["frames"][name] = entry
        added += 1
    with open(PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{added} frame(s) added, {len(doc['frames']) - added} kept as committed")


if __name__ == "__main__":
    _append_new_frames()
