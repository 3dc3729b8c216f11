"""Wire serialization for RPC arguments and return values.

A compact tagged binary format covering the types UPC++ programs actually
ship — scalars, strings, bytes, containers, numpy arrays, global pointers,
views, and distributed-object references — with a pickle escape hatch for
anything else.  Packing produces real bytes (what travels on the simulated
wire and determines transfer timing); unpacking reconstructs the objects at
the target.

Two properties matter for fidelity:

- :class:`~repro.upcxx.view.View` payloads deserialize as views over the
  received buffer (zero-copy at the target, as in UPC++);
- ``measure()`` reports the exact wire size so CPU serialization costs can
  be charged proportionally.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.upcxx.errors import SerializationError
from repro.upcxx.global_ptr import GlobalPtr
from repro.upcxx.view import View

# one-byte type tags
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_BIGINT = 4
_T_FLOAT = 5
_T_STR = 6
_T_BYTES = 7
_T_TUPLE = 8
_T_LIST = 9
_T_DICT = 10
_T_NDARRAY = 11
_T_GPTR = 12
_T_VIEW = 13
_T_DISTREF = 14
_T_PICKLE = 15
_T_CUSTOM = 16

#: user-registered class serializers: cls -> (type_id, to_wire, from_wire)
_CUSTOM_BY_CLS: dict = {}
#: type_id -> from_wire
_CUSTOM_BY_ID: dict = {}

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

# precomputed one-byte tag frames: bytes([...]) per element is a measurable
# allocation cost on the RPC hot path, so each tag is materialized once
_B_NONE = bytes([_T_NONE])
_B_TRUE = bytes([_T_TRUE])
_B_FALSE = bytes([_T_FALSE])
_B_INT = bytes([_T_INT])
_B_BIGINT = bytes([_T_BIGINT])
_B_FLOAT = bytes([_T_FLOAT])
_B_STR = bytes([_T_STR])
_B_BYTES = bytes([_T_BYTES])
_B_TUPLE = bytes([_T_TUPLE])
_B_LIST = bytes([_T_LIST])
_B_DICT = bytes([_T_DICT])
_B_NDARRAY = bytes([_T_NDARRAY])
_B_GPTR = bytes([_T_GPTR])
_B_VIEW = bytes([_T_VIEW])
_B_DISTREF = bytes([_T_DISTREF])
_B_PICKLE = bytes([_T_PICKLE])
_B_CUSTOM = bytes([_T_CUSTOM])
_B_KIND_HOST = bytes([0])
_B_KIND_DEVICE = bytes([1])


@dataclass(frozen=True)
class DistObjectRef:
    """Wire token naming a distributed object: (team uid, creation index)."""

    team_uid: int
    index: int


def _is_dist_object(obj: Any) -> bool:
    """Late-bound isinstance check (avoids a circular import)."""
    from repro.upcxx.dist_object import DistObject

    return isinstance(obj, DistObject)


def _pack_len(out: List[bytes], n: int) -> None:
    out.append(_U32.pack(n))


def _pack_into(out: List[bytes], obj: Any) -> None:
    if obj is None:
        out.append(_B_NONE)
    elif obj is True:
        out.append(_B_TRUE)
    elif obj is False:
        out.append(_B_FALSE)
    elif isinstance(obj, int):
        if -(2**63) <= obj < 2**63:
            out.append(_B_INT)
            out.append(_I64.pack(obj))
        else:
            raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            out.append(_B_BIGINT)
            _pack_len(out, len(raw))
            out.append(raw)
    elif isinstance(obj, float):
        out.append(_B_FLOAT)
        out.append(_F64.pack(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(_B_STR)
        _pack_len(out, len(raw))
        out.append(raw)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        out.append(_B_BYTES)
        _pack_len(out, len(raw))
        out.append(raw)
    elif isinstance(obj, tuple):
        out.append(_B_TUPLE)
        _pack_len(out, len(obj))
        for x in obj:
            _pack_into(out, x)
    elif isinstance(obj, list):
        out.append(_B_LIST)
        _pack_len(out, len(obj))
        for x in obj:
            _pack_into(out, x)
    elif isinstance(obj, dict):
        out.append(_B_DICT)
        _pack_len(out, len(obj))
        for k, v in obj.items():
            _pack_into(out, k)
            _pack_into(out, v)
    elif isinstance(obj, View):
        arr = obj.to_numpy()
        dt = str(arr.dtype).encode()
        out.append(_B_VIEW)
        _pack_len(out, len(dt))
        out.append(dt)
        raw = arr.tobytes()
        _pack_len(out, len(raw))
        out.append(raw)
    elif isinstance(obj, np.ndarray):
        dt = str(obj.dtype).encode()
        shape = obj.shape
        out.append(_B_NDARRAY)
        _pack_len(out, len(dt))
        out.append(dt)
        _pack_len(out, len(shape))
        for s in shape:
            out.append(_U32.pack(s))
        raw = np.ascontiguousarray(obj).tobytes()
        _pack_len(out, len(raw))
        out.append(raw)
    elif isinstance(obj, np.generic):  # numpy scalar
        _pack_into(out, obj.item())
    elif isinstance(obj, GlobalPtr):
        out.append(_B_GPTR)
        out.append(_I64.pack(obj.rank))
        out.append(_I64.pack(obj.offset))
        dt = str(obj.dtype).encode()
        _pack_len(out, len(dt))
        out.append(dt)
        out.append(_I64.pack(obj.count))
        out.append(_B_KIND_HOST if obj.kind == "host" else _B_KIND_DEVICE)
    elif isinstance(obj, DistObjectRef):
        out.append(_B_DISTREF)
        out.append(_I64.pack(obj.team_uid))
        out.append(_I64.pack(obj.index))
    elif _is_dist_object(obj):
        # a dist_object serializes as its global id (never by value)
        _pack_into(out, obj.ref())
    elif type(obj) in _CUSTOM_BY_CLS:
        type_id, to_wire, _from_wire = _CUSTOM_BY_CLS[type(obj)]
        out.append(_B_CUSTOM)
        tid = type_id.encode()
        _pack_len(out, len(tid))
        out.append(tid)
        _pack_into(out, to_wire(obj))
    else:
        try:
            raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise SerializationError(f"cannot serialize {type(obj).__name__}: {exc}") from exc
        out.append(_B_PICKLE)
        _pack_len(out, len(raw))
        out.append(raw)


class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        b = self.buf[self.pos : self.pos + n]
        if len(b) != n:
            raise SerializationError("truncated buffer")
        self.pos += n
        return b

    def take_view(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise SerializationError("truncated buffer")
        mv = memoryview(self.buf)[self.pos : self.pos + n]
        self.pos += n
        return mv

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def i64(self) -> int:
        return _I64.unpack(self.take(8))[0]


def _unpack_from(r: _Reader) -> Any:
    tag = r.take(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return r.i64()
    if tag in (_T_BIGINT, _T_PICKLE):
        return pickle.loads(r.take(r.u32()))
    if tag == _T_FLOAT:
        return _F64.unpack(r.take(8))[0]
    if tag == _T_STR:
        return r.take(r.u32()).decode("utf-8")
    if tag == _T_BYTES:
        return r.take(r.u32())
    if tag == _T_TUPLE:
        n = r.u32()
        return tuple(_unpack_from(r) for _ in range(n))
    if tag == _T_LIST:
        n = r.u32()
        return [_unpack_from(r) for _ in range(n)]
    if tag == _T_DICT:
        n = r.u32()
        return {_unpack_from(r): _unpack_from(r) for _ in range(n)}
    if tag == _T_VIEW:
        dt = np.dtype(r.take(r.u32()).decode())
        nraw = r.u32()
        # zero-copy: the view aliases the incoming buffer
        arr = np.frombuffer(r.take_view(nraw), dtype=dt)
        return View(arr)
    if tag == _T_NDARRAY:
        dt = np.dtype(r.take(r.u32()).decode())
        ndim = r.u32()
        shape = tuple(_U32.unpack(r.take(4))[0] for _ in range(ndim))
        nraw = r.u32()
        arr = np.frombuffer(r.take(nraw), dtype=dt).reshape(shape).copy()
        return arr
    if tag == _T_GPTR:
        rank = r.i64()
        offset = r.i64()
        dt = np.dtype(r.take(r.u32()).decode())
        count = r.i64()
        kind = "host" if r.take(1)[0] == 0 else "device"
        return GlobalPtr(rank, offset, dt, count, kind)
    if tag == _T_DISTREF:
        return DistObjectRef(r.i64(), r.i64())
    if tag == _T_CUSTOM:
        type_id = r.take(r.u32()).decode()
        from_wire = _CUSTOM_BY_ID.get(type_id)
        if from_wire is None:
            raise SerializationError(f"no deserializer registered for {type_id!r}")
        return from_wire(_unpack_from(r))
    raise SerializationError(f"unknown tag {tag}")


# -------------------------------------------------------- custom serializers
def register_serialization(cls, to_wire, from_wire, type_id: str = None) -> None:
    """Register wire serialization for a user class.

    The analogue of ``UPCXX_SERIALIZED_VALUES``/``SERIALIZED_FIELDS``:
    ``to_wire(obj)`` returns any already-serializable value and
    ``from_wire(value)`` reconstructs the instance at the target.
    """
    tid = type_id or f"{cls.__module__}.{cls.__qualname__}"
    _CUSTOM_BY_CLS[cls] = (tid, to_wire, from_wire)
    _CUSTOM_BY_ID[tid] = from_wire


def serializable_fields(*fields):
    """Class decorator: serialize by the named constructor fields.

    The analogue of ``UPCXX_SERIALIZED_FIELDS(...)``::

        @serializable_fields("key", "weight")
        class Edge:
            def __init__(self, key, weight): ...
    """

    def wrap(cls):
        register_serialization(
            cls,
            to_wire=lambda obj: tuple(getattr(obj, f) for f in fields),
            from_wire=lambda values: cls(*values),
        )
        return cls

    return wrap


def pack(obj: Any) -> bytes:
    """Serialize ``obj`` into wire bytes."""
    # Fast path: a top-level bytes/bytearray payload (the dominant AM/RPC
    # shape in the DHT workloads) skips the dispatch chain and list
    # assembly.  The emitted frame is byte-identical to the general path:
    # tag + u32 length + raw.
    t = type(obj)
    if t is bytes:
        return _B_BYTES + _U32.pack(len(obj)) + obj
    if t is bytearray:
        return _B_BYTES + _U32.pack(len(obj)) + bytes(obj)
    if t is tuple:
        # Flat argument tuples of scalars/refs/pointers are the other hot
        # RPC shape (every request and reply envelope); emit their frames
        # inline — byte-identical to _pack_into — and bail to the general
        # recursive packer on the first element it doesn't cover.
        out = [_B_TUPLE, _U32.pack(len(obj))]
        append = out.append
        for x in obj:
            tx = type(x)
            if tx is int:
                if -(2**63) <= x < 2**63:
                    append(_B_INT)
                    append(_I64.pack(x))
                else:
                    break
            elif tx is bytes:
                append(_B_BYTES)
                append(_U32.pack(len(x)))
                append(x)
            elif tx is DistObjectRef:
                append(_B_DISTREF)
                append(_I64.pack(x.team_uid))
                append(_I64.pack(x.index))
            elif tx is GlobalPtr:
                append(_B_GPTR)
                append(_I64.pack(x.rank))
                append(_I64.pack(x.offset))
                dt = str(x.dtype).encode()
                append(_U32.pack(len(dt)))
                append(dt)
                append(_I64.pack(x.count))
                append(_B_KIND_HOST if x.kind == "host" else _B_KIND_DEVICE)
            elif tx is float:
                append(_B_FLOAT)
                append(_F64.pack(x))
            elif tx is str:
                raw = x.encode("utf-8")
                append(_B_STR)
                append(_U32.pack(len(raw)))
                append(raw)
            elif x is None:
                append(_B_NONE)
            elif x is True:
                append(_B_TRUE)
            elif x is False:
                append(_B_FALSE)
            elif tx is tuple:
                # One level of nested scalar tuples (span sids, (key,
                # version) pairs) must not knock the whole tuple off the
                # fast path.  Byte-identical to _pack_into.
                sub: Optional[List[bytes]] = [_B_TUPLE, _U32.pack(len(x))]
                sapp = sub.append
                for y in x:
                    ty = type(y)
                    if ty is int:
                        if -(2**63) <= y < 2**63:
                            sapp(_B_INT)
                            sapp(_I64.pack(y))
                        else:
                            sub = None
                            break
                    elif ty is float:
                        sapp(_B_FLOAT)
                        sapp(_F64.pack(y))
                    elif ty is bytes:
                        sapp(_B_BYTES)
                        sapp(_U32.pack(len(y)))
                        sapp(y)
                    elif ty is str:
                        raw = y.encode("utf-8")
                        sapp(_B_STR)
                        sapp(_U32.pack(len(raw)))
                        sapp(raw)
                    elif y is None:
                        sapp(_B_NONE)
                    elif y is True:
                        sapp(_B_TRUE)
                    elif y is False:
                        sapp(_B_FALSE)
                    else:
                        sub = None
                        break
                if sub is None:
                    break
                out.extend(sub)
            else:
                break
        else:
            return b"".join(out)
    out = []
    _pack_into(out, obj)
    return b"".join(out)


def unpack(buf: bytes) -> Any:
    """Deserialize one object from ``buf``."""
    # Fast paths mirroring pack(): a whole-buffer bytes frame needs no
    # reader state — one tag check, one length check, one slice — and a
    # flat tuple of scalars/refs/pointers is decoded inline without the
    # per-element reader dispatch.  Any anomaly (unexpected tag, short
    # buffer, trailing bytes) falls through to the general path, which
    # raises the proper SerializationError.
    n = len(buf)
    if n >= 5:
        tag = buf[0]
        if tag == _T_BYTES and 5 + _U32.unpack_from(buf, 1)[0] == n:
            return buf[5:]  # same slice the general path's take() would produce
        if tag == _T_TUPLE:
            count = _U32.unpack_from(buf, 1)[0]
            pos = 5
            vals: List[Any] = []
            append = vals.append
            ok = True
            try:
                for _ in range(count):
                    if pos >= n:
                        ok = False
                        break
                    t = buf[pos]
                    pos += 1
                    if t == _T_INT:
                        append(_I64.unpack_from(buf, pos)[0])
                        pos += 8
                    elif t == _T_BYTES:
                        ln = _U32.unpack_from(buf, pos)[0]
                        pos += 4
                        append(buf[pos : pos + ln])
                        pos += ln
                    elif t == _T_DISTREF:
                        append(
                            DistObjectRef(
                                _I64.unpack_from(buf, pos)[0],
                                _I64.unpack_from(buf, pos + 8)[0],
                            )
                        )
                        pos += 16
                    elif t == _T_GPTR:
                        rank = _I64.unpack_from(buf, pos)[0]
                        offset = _I64.unpack_from(buf, pos + 8)[0]
                        pos += 16
                        ln = _U32.unpack_from(buf, pos)[0]
                        pos += 4
                        dt = np.dtype(buf[pos : pos + ln].decode())
                        pos += ln
                        cnt = _I64.unpack_from(buf, pos)[0]
                        pos += 8
                        kind = "host" if buf[pos] == 0 else "device"
                        pos += 1
                        append(GlobalPtr(rank, offset, dt, cnt, kind))
                    elif t == _T_FLOAT:
                        append(_F64.unpack_from(buf, pos)[0])
                        pos += 8
                    elif t == _T_STR:
                        ln = _U32.unpack_from(buf, pos)[0]
                        pos += 4
                        append(buf[pos : pos + ln].decode("utf-8"))
                        pos += ln
                    elif t == _T_NONE:
                        append(None)
                    elif t == _T_TRUE:
                        append(True)
                    elif t == _T_FALSE:
                        append(False)
                    elif t == _T_TUPLE:
                        # one nested level of scalars, mirroring pack()
                        sub_n = _U32.unpack_from(buf, pos)[0]
                        pos += 4
                        sub: List[Any] = []
                        for _ in range(sub_n):
                            if pos >= n:
                                ok = False
                                break
                            st = buf[pos]
                            pos += 1
                            if st == _T_INT:
                                sub.append(_I64.unpack_from(buf, pos)[0])
                                pos += 8
                            elif st == _T_FLOAT:
                                sub.append(_F64.unpack_from(buf, pos)[0])
                                pos += 8
                            elif st == _T_BYTES:
                                ln = _U32.unpack_from(buf, pos)[0]
                                pos += 4
                                sub.append(buf[pos : pos + ln])
                                pos += ln
                            elif st == _T_STR:
                                ln = _U32.unpack_from(buf, pos)[0]
                                pos += 4
                                sub.append(buf[pos : pos + ln].decode("utf-8"))
                                pos += ln
                            elif st == _T_NONE:
                                sub.append(None)
                            elif st == _T_TRUE:
                                sub.append(True)
                            elif st == _T_FALSE:
                                sub.append(False)
                            else:
                                ok = False
                                break
                        if not ok:
                            break
                        append(tuple(sub))
                    else:
                        ok = False
                        break
            except struct.error:
                ok = False
            if ok and pos == n:
                return tuple(vals)
    r = _Reader(buf)
    obj = _unpack_from(r)
    if r.pos != len(buf):
        raise SerializationError(f"trailing bytes: {len(buf) - r.pos}")
    return obj


def measure(obj: Any) -> int:
    """Wire size of ``obj`` in bytes (cheap: packs once)."""
    return len(pack(obj))


def copy_free_bytes(obj: Any) -> int:
    """Bytes of ``obj`` that move zero-copy (View payloads).

    Used to discount target-side deserialization CPU charges.
    """
    if isinstance(obj, View):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(copy_free_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(copy_free_bytes(v) for v in obj.values())
    return 0


def split_roundtrip(obj: Any) -> Tuple[bytes, Any]:
    """Pack then unpack (testing helper): returns (wire bytes, clone)."""
    raw = pack(obj)
    return raw, unpack(raw)
