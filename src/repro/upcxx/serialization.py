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

The codec is two tables, ``_ENC`` (exact type -> encoder) and ``_DEC`` (tag ->
decoder); containers recurse through the same two.  A new wire type is a tag,
a row in each table and an entry in ``tests/test_wire_frames.py``'s corpus.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.upcxx.errors import SerializationError
from repro.upcxx.global_ptr import GlobalPtr
from repro.upcxx.view import View

# The wire format: one tag byte, then the layout in this table (little-endian;
# ``u32``/``i64``/``f64`` fixed width; ``blob`` = u32 length + that many bytes;
# ``frame`` = a nested tag + layout).  docs/api.md carries the same table.
_T_NONE = 0  # -
_T_TRUE = 1  # -
_T_FALSE = 2  # -
_T_INT = 3  # i64
_T_BIGINT = 4  # blob: pickle of an int outside int64
_T_FLOAT = 5  # f64
_T_STR = 6  # blob: utf-8
_T_BYTES = 7  # blob
_T_TUPLE = 8  # u32 n, n frames
_T_LIST = 9  # u32 n, n frames
_T_DICT = 10  # u32 n, n (key frame, value frame) pairs
_T_NDARRAY = 11  # blob dtype, u32 ndim, ndim u32 dims, blob C-order data
_T_GPTR = 12  # i64 rank, i64 offset, blob dtype, i64 count, u8 kind (0 host, 1 device)
_T_VIEW = 13  # blob dtype, blob data (decoded in place, zero-copy)
_T_DISTREF = 14  # i64 team uid, i64 index
_T_PICKLE = 15  # blob: pickle of anything without a row below
_T_CUSTOM = 16  # blob type id, frame of to_wire(obj)

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_TAG_I64 = struct.Struct("<Bq")
_TAG_F64 = struct.Struct("<Bd")
_TAG_U32 = struct.Struct("<BI")  # a tag and the length or count that follows it
_TAG_2I64 = struct.Struct("<Bqq")
_2I64 = struct.Struct("<qq")
_I64_U8 = struct.Struct("<qB")
_B_NONE, _B_TRUE, _B_FALSE = bytes((_T_NONE,)), bytes((_T_TRUE,)), bytes((_T_FALSE,))

#: user-registered classes: cls -> (type id, to_wire); type id -> from_wire
_CUSTOM_BY_CLS: dict = {}
_CUSTOM_BY_ID: dict = {}


@dataclass(frozen=True)
class DistObjectRef:
    """Wire token naming a distributed object: (team uid, creation index)."""

    team_uid: int
    index: int


# ------------------------------------------------------------------ encoders
# encoder(append, obj) appends obj's frame, piecewise, to the output list.
def _encode(append: Callable[[bytes], None], obj: Any) -> None:
    _ENC.get(type(obj), _enc_other)(append, obj)


def _put_blob(append, tag: int, raw: bytes) -> None:
    append(_TAG_U32.pack(tag, len(raw)))
    append(raw)


def _enc_int(append, obj) -> None:
    try:
        append(_TAG_I64.pack(_T_INT, obj))
    except struct.error:  # outside int64
        _put_blob(append, _T_BIGINT, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _enc_bytes(append, obj) -> None:
    append(_TAG_U32.pack(_T_BYTES, len(obj)))
    append(obj)


def _enc_sequence(tag: int):
    def enc(append, obj) -> None:
        append(_TAG_U32.pack(tag, len(obj)))
        get = _ENC.get
        for x in obj:
            get(type(x), _enc_other)(append, x)

    return enc


def _enc_dict(append, obj) -> None:
    append(_TAG_U32.pack(_T_DICT, len(obj)))
    for k, v in obj.items():
        _encode(append, k)
        _encode(append, v)


def _enc_array(append, tag: int, arr: np.ndarray, dims: tuple) -> None:
    _put_blob(append, tag, str(arr.dtype).encode())
    raw = arr.tobytes()  # C order, whatever the strides
    append(struct.pack(f"<{len(dims) + 1}I", *dims, len(raw)))
    append(raw)


def _enc_gptr(append, obj) -> None:
    append(_TAG_2I64.pack(_T_GPTR, obj.rank, obj.offset))
    dt = str(obj.dtype).encode()
    append(_U32.pack(len(dt)))
    append(dt)
    append(_I64_U8.pack(obj.count, obj.kind != "host"))


def _enc_other(append, obj) -> None:
    """Every type without a row of its own in ``_ENC``.

    A subclass travels as the first wire type it is an instance of (an
    ``IntEnum`` as int, a namedtuple as tuple), a numpy scalar as its Python
    value, a dist_object as its global id (never by value), a registered
    class by its ``to_wire``, and the rest by pickle.
    """
    for base, enc in _ENC.items():
        if isinstance(obj, base):
            return enc(append, obj)
    if isinstance(obj, np.generic):
        return _encode(append, obj.item())
    from repro.upcxx.dist_object import DistObject  # late: dist_object imports this module

    if isinstance(obj, DistObject):
        return _encode(append, obj.ref())
    custom = _CUSTOM_BY_CLS.get(type(obj))
    if custom is not None:
        type_id, to_wire = custom
        _put_blob(append, _T_CUSTOM, type_id.encode())
        return _encode(append, to_wire(obj))
    try:
        raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SerializationError(f"cannot serialize {type(obj).__name__}: {exc}") from exc
    _put_blob(append, _T_PICKLE, raw)


#: exact type -> encoder, in the order ``_enc_other`` tries them on subclasses
_ENC: Dict[type, Callable] = {
    type(None): lambda append, obj: append(_B_NONE),
    bool: lambda append, obj: append(_B_TRUE if obj else _B_FALSE),
    int: _enc_int,
    float: lambda append, obj: append(_TAG_F64.pack(_T_FLOAT, obj)),
    str: lambda append, obj: _put_blob(append, _T_STR, obj.encode("utf-8")),
    bytes: _enc_bytes,
    bytearray: lambda append, obj: _enc_bytes(append, bytes(obj)),
    memoryview: lambda append, obj: _enc_bytes(append, bytes(obj)),
    tuple: _enc_sequence(_T_TUPLE),
    list: _enc_sequence(_T_LIST),
    dict: _enc_dict,
    View: lambda append, obj: _enc_array(append, _T_VIEW, obj.to_numpy(), ()),
    np.ndarray: lambda append, obj: _enc_array(append, _T_NDARRAY, obj, (obj.ndim, *obj.shape)),
    GlobalPtr: _enc_gptr,
    DistObjectRef: lambda append, obj: append(_TAG_2I64.pack(_T_DISTREF, obj.team_uid, obj.index)),
}


# ------------------------------------------------------------------ decoders
# decoder(buf, pos, emit) reads the layout after a tag byte, hands the value to
# ``emit`` and returns the position after it: the encoders' shape mirrored, so
# a container's loop is one call per element.  None checks for the end of the
# buffer before a fixed-width read or a tag lookup — ``unpack()`` turns that
# struct.error/IndexError into the one SerializationError.  Only a length
# field needs a test (a slice never fails).
def _take(buf, pos: int):
    """The blob at ``pos``: (its bytes, the position after them)."""
    end = pos + 4 + _U32.unpack_from(buf, pos)[0]
    if end > len(buf):
        raise IndexError("length field reaches past the buffer")
    return buf[pos + 4 : end], end


def _dec_const(value):
    def dec(buf, pos, emit):
        emit(value)
        return pos

    return dec


def _dec_fixed(layout: struct.Struct):
    read, size = layout.unpack_from, layout.size

    def dec(buf, pos, emit):
        emit(read(buf, pos)[0])
        return pos + size

    return dec


def _dec_blob(convert: Optional[Callable]):
    def dec(buf, pos, emit):  # _take() spelled out: str and bytes are in most frames
        end = pos + 4 + _U32.unpack_from(buf, pos)[0]
        if end > len(buf):
            raise IndexError("length field reaches past the buffer")
        raw = buf[pos + 4 : end]
        emit(raw if convert is None else convert(raw))
        return end

    return dec


def _dec_container(build: Optional[Callable], per: int = 1):
    def dec(buf, pos, emit):  # a u32 count, then ``per`` frames for each
        n = _U32.unpack_from(buf, pos)[0] * per
        pos += 4
        items: list = []
        append = items.append
        decoders = _DEC
        for _ in repeat(None, n):
            pos = decoders[buf[pos]](buf, pos + 1, append)
        emit(items if build is None else build(items))
        return pos

    return dec


def _dec_ndarray(buf, pos, emit):
    dt, pos = _take(buf, pos)
    ndim = _U32.unpack_from(buf, pos)[0]
    shape = struct.unpack_from(f"<{ndim}I", buf, pos + 4)
    raw, pos = _take(buf, pos + 4 + 4 * ndim)
    emit(np.frombuffer(raw, np.dtype(dt.decode())).reshape(shape).copy())
    return pos


def _dec_gptr(buf, pos, emit):
    rank, offset = _2I64.unpack_from(buf, pos)
    dt, pos = _take(buf, pos + 16)
    count, kind = _I64_U8.unpack_from(buf, pos)
    emit(GlobalPtr(rank, offset, np.dtype(dt.decode()), count, "device" if kind else "host"))
    return pos + 9


def _dec_view(buf, pos, emit):
    dt, pos = _take(buf, pos)
    raw, pos = _take(memoryview(buf), pos)  # zero-copy: the view aliases the incoming buffer
    emit(View(np.frombuffer(raw, np.dtype(dt.decode()))))
    return pos


def _dec_distref(buf, pos, emit):
    emit(DistObjectRef(*_2I64.unpack_from(buf, pos)))
    return pos + 16


def _dec_custom(buf, pos, emit):
    raw, pos = _take(buf, pos)
    type_id = raw.decode()
    from_wire = _CUSTOM_BY_ID.get(type_id)
    if from_wire is None:
        raise SerializationError(f"no deserializer registered for {type_id!r}")
    return _DEC[buf[pos]](buf, pos + 1, lambda value: emit(from_wire(value)))


_DEC_BY_TAG = {
    _T_NONE: _dec_const(None),
    _T_TRUE: _dec_const(True),
    _T_FALSE: _dec_const(False),
    _T_INT: _dec_fixed(_I64),
    _T_BIGINT: _dec_blob(pickle.loads),
    _T_FLOAT: _dec_fixed(_F64),
    _T_STR: _dec_blob(bytes.decode),  # utf-8
    _T_BYTES: _dec_blob(None),
    _T_TUPLE: _dec_container(tuple),
    _T_LIST: _dec_container(None),
    _T_DICT: _dec_container(lambda flat: dict(zip(flat[::2], flat[1::2])), per=2),
    _T_NDARRAY: _dec_ndarray,
    _T_GPTR: _dec_gptr,
    _T_VIEW: _dec_view,
    _T_DISTREF: _dec_distref,
    _T_PICKLE: _dec_blob(pickle.loads),
    _T_CUSTOM: _dec_custom,
}
#: tag -> decoder; a tag past the end is an IndexError, like any short read
_DEC: List[Callable] = [_DEC_BY_TAG[tag] for tag in range(len(_DEC_BY_TAG))]


# -------------------------------------------------------- custom serializers
def register_serialization(cls, to_wire, from_wire, type_id: str = None) -> None:
    """Register wire serialization for a user class.

    The analogue of ``UPCXX_SERIALIZED_VALUES``/``SERIALIZED_FIELDS``:
    ``to_wire(obj)`` returns any already-serializable value and
    ``from_wire(value)`` reconstructs the instance at the target.
    """
    tid = type_id or f"{cls.__module__}.{cls.__qualname__}"
    _CUSTOM_BY_CLS[cls] = (tid, to_wire)
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
    out: List[bytes] = []
    _ENC.get(type(obj), _enc_other)(out.append, obj)
    return b"".join(out)


def _raised_here(exc: BaseException) -> bool:
    """Whether this module raised ``exc`` (a decoder's short read) rather than
    user code a decoder called (``from_wire``, a class being unpickled)."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_filename == __file__


def unpack(buf: bytes) -> Any:
    """Deserialize one object from ``buf``.

    A malformed buffer — truncated, a length field reaching past the end, an
    unknown tag, trailing bytes — raises :class:`SerializationError`.
    """
    out: list = []
    try:
        pos = _DEC[buf[0]](buf, 1, out.append)
    except (struct.error, IndexError) as exc:
        if not _raised_here(exc):
            raise
        raise SerializationError(f"truncated buffer or unknown tag: {exc}") from exc
    if pos != len(buf):
        raise SerializationError(f"trailing bytes: {len(buf) - pos}")
    return out[0]


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
