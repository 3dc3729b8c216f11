"""Sharded multi-core backend: conservative parallel DES over forked workers.

``Scheduler(backend="sharded")`` partitions the simulated *nodes* across N
``multiprocessing`` worker processes (``REPRO_SIM_SHARDS``, default: CPU
count, clamped to the node count) and runs a Chandy–Misra–Bryant-style
conservative window loop in each worker:

1. **Lookahead.**  Shards own whole nodes, so every cross-shard message is
   a cross-*node* message and cannot arrive earlier than
   ``NetworkModel.latency_oneway`` (0.65 us on Aries) after it was created.
   Intra-node traffic (the small ``latency_oneway_shm``) never crosses a
   shard and therefore never shrinks the lookahead.
2. **Windows (protocol v2: one barrier per window).**  Each shard
   advances its local event heap and ready ranks strictly below a window
   bound, then runs a *single* all-pairs exchange per window.  Every
   frame piggybacks, next to the batch of cross-shard *envelopes*
   (puts/gets/AMs/completions), the sender's done-rank count and two
   horizon words: ``h`` — its earliest remaining local work (computed
   after executing the window, i.e. post-insertion with respect to every
   envelope delivered at earlier barriers) — and ``e`` — the earliest
   fire time among the envelopes it is sending *elsewhere* in this same
   barrier.  The bound is then::

       wbound = min(floor + L, h_post + m*L)
       floor  = min(min over peers P of min(h_P, e_P), own outbox min)

   with ``L = latency_oneway``.  Correctness: any message that can still
   reach this shard is created by some shard executing at a simulated
   time no earlier than that shard's true horizon, and every true
   horizon is bounded below by ``floor`` — ``h_P`` covers P's local
   work, and every envelope in flight anywhere appears in some sender's
   ``e`` word (or in our own outbox minimum), covering the wakeups the
   advertised horizons cannot see yet.  A message created at time
   ``t >= floor`` arrives no earlier than ``t + L``, so nothing executed
   strictly below ``floor + L`` can be invalidated: no rollbacks, no
   speculation.  The ``h_post + m*L`` self-term (m >= 2) bounds echoes
   of our *own* future sends when every peer is idle; it is kept sound
   for any m by the **emission clamp**: the moment this shard emits an
   envelope firing at ``f`` mid-window, the bound is pulled down to
   ``f + L`` — the earliest instant any reaction to that envelope can
   reach us — before execution can pass it (``f + L >= now + 2L``).
   When a window closes with everything infinite (all advertised
   horizons +inf and no envelope in flight anywhere — a condition every
   shard observes symmetrically from the same barrier data), a one-shot
   *catch-up* frame is exchanged at the window edge carrying the
   post-insertion horizon and final done count, re-establishing the v1
   protocol's post-insertion verdict exactly where the pre/post
   distinction could matter: the done-or-deadlock decision.
   **Adaptive lookahead.**  The self-term multiplier ``m`` starts at 2
   (one round trip, the v1 bound) and adapts deterministically from
   simulated-time observables shared at the barrier: it doubles (up to
   32) after a globally-quiet window — no envelopes sent or received and
   every peer ``e`` infinite — and resets to 2 when traffic arrives
   within one ``L`` of the closed bound.  Bounds never influence
   execution *order* (events fire in ``(fire_time, stamp)`` order
   regardless of where windows fall), so adaptation cannot perturb
   results, traces, or span fingerprints; ``REPRO_SHARD_LOOKAHEAD=fixed``
   pins ``m = 2`` for A/B determinism checks.
3. **Determinism.**  Events are keyed ``(fire_time, stamp)`` where the
   *stamp* is a causal tuple — ``(create_time, rank, seq)`` for rank
   posts, ``parent_stamp + (child_seq,)`` for events posted from network
   context — identical no matter which shard executes what when.  Merged
   results, simulated times and canonical trace fingerprints are
   bit-identical to the in-process scheduler
   (tests/test_backend_determinism.py).  The one theoretical divergence:
   two events firing at the *exact same instant* where one was posted by
   a rank after another rank posted the chain parent of the other — the
   library never races same-instant effects on shared state, and the
   determinism suite pins the equivalence.

Known limitations (all raise a clear ``SimError``):

- direct cross-shard segment/inbox access (``conduit.segment(remote)``;
  used by the v0.1 async layer and the device/VIS paths) — use the
  coroutines backend for those;
- side effects of the SPMD body (closure mutation) stay in the worker
  process: results must flow through return values (as in real UPC++);
- without a configured machine (raw ``Scheduler`` use), there is no
  lookahead and the job degenerates to a single shard.

Failure/termination: done-rank counts ride on every envelope exchange;
when every shard announces an +inf horizon the job is either complete or
globally deadlocked (each worker reaches the same verdict from the same
data).  A failing shard replaces its envelope frame with a FAIL frame so
peers never block on it; the parent re-raises the original failure.
"""

from __future__ import annotations

import heapq
import io
import marshal
import os
import pickle
import struct
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.coop import _BLOCKED, _READY, _RUNNING, Scheduler

from repro.sim.errors import DeadlockError, RankDeadError, RankFailure, SimError
from repro.util.trace import TraceBuffer

#: environment override for the worker-process count
SHARDS_ENV = "REPRO_SIM_SHARDS"
#: lookahead policy: "adaptive" (default) or "fixed" (pin the v1 bound)
LOOKAHEAD_ENV = "REPRO_SHARD_LOOKAHEAD"

_INF = float("inf")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_DEBUG = bool(os.environ.get("REPRO_SHARD_DEBUG"))

#: bytes payloads at or above this size travel as raw length-prefixed
#: frames on the channel instead of through the pickle stream
_BLOB_MIN = 256


# ======================================================================
# Function / payload marshalling
# ======================================================================
#
# RPC payloads carry live callables (module functions, lambdas, closures).
# Module-level functions pickle by reference; everything else is rebuilt
# from its code object + closure values.  Globals are bound by *module
# name* — valid because workers are forked from the fully-imported parent,
# so ``sys.modules`` is identical on both sides.

_CELL_EMPTY = "__repro_empty_cell__"


def _rebuild_fn(code_bytes, module_name, name, defaults, kwdefaults, closure_vals):
    mod = sys.modules.get(module_name)
    globs = mod.__dict__ if mod is not None else {"__builtins__": __builtins__}
    code = marshal.loads(code_bytes)
    closure = None
    if closure_vals is not None:
        closure = tuple(
            types.CellType() if v == _CELL_EMPTY else types.CellType(v) for v in closure_vals
        )
    fn = types.FunctionType(code, globs, name, defaults, closure)
    fn.__kwdefaults__ = kwdefaults
    return fn


def _importable_by_ref(fn: types.FunctionType) -> bool:
    mod = sys.modules.get(fn.__module__)
    if mod is None:
        return False
    obj = mod
    try:
        for part in fn.__qualname__.split("."):
            obj = getattr(obj, part)
    except AttributeError:
        return False
    return obj is fn


def _cell_value(cell):
    try:
        return cell.cell_contents
    except ValueError:  # genuinely empty cell (recursive def not yet bound)
        return _CELL_EMPTY


class _ShardPickler(pickle.Pickler):
    """Standard pickle plus by-value function support (cloudpickle-lite)."""

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType) and not _importable_by_ref(obj):
            closure = obj.__closure__
            return (
                _rebuild_fn,
                (
                    marshal.dumps(obj.__code__),
                    obj.__module__ or "builtins",
                    obj.__name__,
                    obj.__defaults__,
                    obj.__kwdefaults__,
                    None if closure is None else tuple(_cell_value(c) for c in closure),
                ),
            )
        return NotImplemented


def _dumps(obj) -> bytes:
    buf = io.BytesIO()
    _ShardPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


_loads = pickle.loads


class _BlobRef:
    """Placeholder for a bytes payload extracted into a raw frame."""

    __slots__ = ("i",)

    def __init__(self, i: int):
        self.i = i

    def __reduce__(self):
        return (_BlobRef, (self.i,))


def _split_blobs(obj, blobs: list):
    """Replace large bytes in ``obj`` with :class:`_BlobRef` markers.

    The extracted blobs travel as length-prefixed raw frames — no pickle
    memo or opcode overhead on the dominant payload bytes.
    """
    t = type(obj)
    if t is bytes:
        if len(obj) >= _BLOB_MIN:
            blobs.append(obj)
            return _BlobRef(len(blobs) - 1)
        return obj
    if t is bytearray:
        if len(obj) >= _BLOB_MIN:
            blobs.append(bytes(obj))
            return _BlobRef(len(blobs) - 1)
        return obj
    if t is tuple:
        return tuple(_split_blobs(x, blobs) for x in obj)
    if t is list:
        return [_split_blobs(x, blobs) for x in obj]
    if t is dict:
        return {k: _split_blobs(v, blobs) for k, v in obj.items()}
    return obj


def _join_blobs(obj, blobs):
    t = type(obj)
    if t is _BlobRef:
        return blobs[obj.i]
    if t is tuple:
        return tuple(_join_blobs(x, blobs) for x in obj)
    if t is list:
        return [_join_blobs(x, blobs) for x in obj]
    if t is dict:
        return {k: _join_blobs(v, blobs) for k, v in obj.items()}
    return obj


# ======================================================================
# Inter-shard channel
# ======================================================================
_K_ENV = 0  # legacy generic frame kind (kept for codec tests/tools)
_K_HOR = 1  # legacy generic frame kind (kept for codec tests/tools)
_K_FAIL = 2  # replaces a window frame when the sender is failing
_K_ENV2 = 3  # protocol-v2 batched window frame (raw, no pickle framing)
_K_SENT = 4  # one-byte sentinel: empty outbox, header unchanged
_K_CATCH = 5  # one-shot catch-up frame: (post-insertion horizon, n_done)

#: the whole frame an idle peer pair pays per window
_SENTINEL_FRAME = bytes([_K_SENT])

_ENV2_HDR = struct.Struct("<BIddI")  # kind, n_done, h, e_other, n_envs
_REC_HDR = struct.Struct("<Bd")  # meta tag, fire_time
_REC_PACKED = 0  # meta encoded via repro.upcxx.serialization.pack
_REC_PICKLED = 1  # meta encoded via the cloudpickle-lite marshaller
_REC_RAWENV = 2  # whole envelope marshalled (stamp outside the fixed layout)
_I64_MAX = 2**63
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")

#: cap on the adaptive idle-provision multiplier (docstring §2): doubling
#: from 2 after each globally-quiet barrier, a bound of 32 hops covers
#: phase-gap silences ~4 doublings deep while keeping the snap-back cheap
_LA_MULT_MAX = 32.0

# Envelope metas ride the tagged wire format of repro.upcxx.serialization
# when they can (flat tuples of scalars and bytes — the hot put/get/cpl
# shapes — hit its inline fast path, and payload bytes travel as raw
# length-prefixed frames), falling back to the marshaller only for metas
# carrying live callables (RPC lambdas).  Bound lazily: repro.sim must
# not import repro.upcxx at module load.
_ser_pack = None
_ser_unpack = None


def _bind_serialization() -> None:
    global _ser_pack, _ser_unpack
    from repro.upcxx.serialization import pack, unpack

    _ser_pack = pack
    _ser_unpack = unpack


class _PeerDied(SimError):
    """A peer worker vanished (EOF on its pipe)."""


def _encode_frame(kind: int, payload, blobs: List[bytes]) -> bytes:
    """Generic (pickled) frame: rare control traffic — FAIL, catch-up."""
    head = _dumps(payload)
    parts = [bytes([kind]), _U32.pack(len(head)), head, _U32.pack(len(blobs))]
    for b in blobs:
        parts.append(_U64.pack(len(b)))
        parts.append(b)
    return b"".join(parts)


def _decode_frame(raw: bytes):
    kind = raw[0]
    n = _U32.unpack_from(raw, 1)[0]
    payload = _loads(raw[5 : 5 + n])
    pos = 5 + n
    nblobs = _U32.unpack_from(raw, pos)[0]
    pos += 4
    blobs = []
    for _ in range(nblobs):
        ln = _U64.unpack_from(raw, pos)[0]
        pos += 8
        blobs.append(raw[pos : pos + ln])
        pos += ln
    return kind, payload, blobs


def _encode_env_frame(n_done: int, h: float, e_other: float, envs) -> bytes:
    """One length-prefixed raw frame per (peer, window): the v2 batch.

    Layout: ``<BIddI`` header (kind, n_done, h, e_other, n_envs), then one
    record per envelope::

        u8 tag | f64 fire_time | u8 len(stamp) | f64 stamp[0] |
        i64 * (len(stamp)-1) | u8 len(kind) | kind utf-8 |
        u32 len(meta) | meta bytes

    Stamps are causal tuples ``(create_time, rank, seq, child...)`` —
    one float followed by small ints — so they encode fixed-width with no
    marshalling at all.  ``tag`` records how the meta bytes were produced
    (:data:`_REC_PACKED` or :data:`_REC_PICKLED`).
    """
    if _ser_pack is None:
        _bind_serialization()
    parts = [_ENV2_HDR.pack(_K_ENV2, n_done, h, e_other, len(envs))]
    append = parts.append
    for env in envs:
        ft, stamp, kind, meta = env
        if (
            0 < len(stamp) <= 255
            and type(stamp[0]) is float
            and all(type(s) is int and -_I64_MAX <= s < _I64_MAX for s in stamp[1:])
            and len(kind) <= 255
        ):
            try:
                body = _ser_pack(meta)
                tag = _REC_PACKED
            except Exception:
                body = _dumps(meta)
                tag = _REC_PICKLED
            append(_REC_HDR.pack(tag, ft))
            append(bytes([len(stamp)]))
            append(_F64.pack(stamp[0]))
            for s in stamp[1:]:
                append(_I64.pack(s))
            kb = kind.encode("utf-8")
            append(bytes([len(kb)]))
            append(kb)
            append(_U32.pack(len(body)))
            append(body)
        else:
            body = _dumps(env)
            append(_REC_HDR.pack(_REC_RAWENV, ft))
            append(_U32.pack(len(body)))
            append(body)
    return b"".join(parts)


def _decode_env_frame(raw: bytes):
    """Inverse of :func:`_encode_env_frame`: (n_done, h, e_other, envs)."""
    if _ser_unpack is None:
        _bind_serialization()
    _, n_done, h, e_other, n_envs = _ENV2_HDR.unpack_from(raw, 0)
    pos = _ENV2_HDR.size
    envs = []
    for _ in range(n_envs):
        tag, ft = _REC_HDR.unpack_from(raw, pos)
        pos += _REC_HDR.size
        if tag == _REC_RAWENV:
            mlen = _U32.unpack_from(raw, pos)[0]
            pos += 4
            envs.append(_loads(raw[pos : pos + mlen]))
            pos += mlen
            continue
        slen = raw[pos]
        pos += 1
        stamp = [_F64.unpack_from(raw, pos)[0]]
        pos += 8
        for _i in range(slen - 1):
            stamp.append(_I64.unpack_from(raw, pos)[0])
            pos += 8
        klen = raw[pos]
        pos += 1
        kind = raw[pos : pos + klen].decode("utf-8")
        pos += klen
        mlen = _U32.unpack_from(raw, pos)[0]
        pos += 4
        body = raw[pos : pos + mlen]
        pos += mlen
        meta = _ser_unpack(body) if tag == _REC_PACKED else _loads(body)
        envs.append((ft, tuple(stamp), kind, meta))
    return n_done, h, e_other, envs


class _Channel:
    """Pairwise duplex pipes between shards with deadlock-free exchange.

    Each exchange walks peers in ascending id; within a pair the lower id
    sends first and the higher id receives first, so no send can block on
    a full pipe while the counterpart is also blocked sending.
    """

    def __init__(self, shard_id: int, conns: Dict[int, object]):
        self.shard_id = shard_id
        self.conns = conns
        self.peers = sorted(conns)
        # sentinel caches: last (n_done, h, e_other) header sent to / seen
        # from each peer — an unchanged header with an empty outbox
        # collapses to the one-byte sentinel frame
        self._tx_hdr: Dict[int, tuple] = {}
        self._rx_hdr: Dict[int, tuple] = {}
        # CMB observability (wall-clock side; never enters simulated state)
        self.n_env_sent = 0
        self.n_env_recv = 0
        self.bytes_sent = 0
        self.bytes_recv = 0
        self.n_frames_sent = 0
        self.n_sentinels_sent = 0

    def _xchg(self, peer: int, frame: bytes) -> bytes:
        conn = self.conns[peer]
        try:
            if self.shard_id < peer:
                conn.send_bytes(frame)
                raw = conn.recv_bytes()
            else:
                raw = conn.recv_bytes()
                conn.send_bytes(frame)
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise _PeerDied(f"shard {peer} terminated mid-protocol: {exc}") from None
        self.bytes_sent += len(frame)
        self.bytes_recv += len(raw)
        return raw

    def exchange_window(self, per_peer_out: dict, n_done: int, h: float, failing: bool):
        """Protocol v2: the single per-window barrier.

        Ships every peer its envelope batch plus the piggybacked header
        ``(n_done, h, e_other)`` — or a one-byte sentinel when the outbox
        to that peer is empty and the header is unchanged — and returns
        ``(incoming, peers_done_total, fail_seen, peer_floor, traffic)``
        where ``peer_floor = min over peers of min(h_P, e_P)`` and
        ``traffic`` reports whether any envelope was visible anywhere at
        this barrier (sent, received, or advertised via a finite ``e``).
        """
        # per-destination outbox minima -> e_other per peer = the earliest
        # fire time among envelopes this barrier carries to *other* shards
        dest_min: Dict[int, float] = {}
        for dst, envs in per_peer_out.items():
            m = _INF
            for env in envs:
                if env[0] < m:
                    m = env[0]
            dest_min[dst] = m
        incoming: list = []
        peer_done = 0
        fail_seen = False
        peer_floor = _INF
        traffic = bool(per_peer_out)
        for peer in self.peers:
            if failing:
                frame = _encode_frame(_K_FAIL, None, [])
            else:
                e_other = _INF
                for dst, m in dest_min.items():
                    if dst != peer and m < e_other:
                        e_other = m
                hdr = (n_done, h, e_other)
                envs = per_peer_out.get(peer, ())
                if not envs and self._tx_hdr.get(peer) == hdr:
                    frame = _SENTINEL_FRAME
                    self.n_sentinels_sent += 1
                else:
                    self.n_env_sent += len(envs)
                    frame = _encode_env_frame(n_done, h, e_other, envs)
                    self._tx_hdr[peer] = hdr
                    self.n_frames_sent += 1
            raw = self._xchg(peer, frame)
            kind = raw[0]
            if kind == _K_SENT:
                hdr = self._rx_hdr.get(peer)
                if hdr is None:
                    raise SimError("shard protocol error: sentinel before any header")
                pdone, ph, pe = hdr
            elif kind == _K_ENV2:
                pdone, ph, pe, envs = _decode_env_frame(raw)
                self._rx_hdr[peer] = (pdone, ph, pe)
                if envs:
                    traffic = True
                    self.n_env_recv += len(envs)
                    incoming.extend(envs)
            elif kind == _K_FAIL:
                _decode_frame(raw)
                fail_seen = True
                continue
            else:
                raise SimError(f"shard protocol error: expected ENV2/SENT/FAIL, got {kind}")
            peer_done += pdone
            if ph < peer_floor:
                peer_floor = ph
            if pe < peer_floor:
                peer_floor = pe
            if pe != _INF:
                traffic = True
        return incoming, peer_done, fail_seen, peer_floor, traffic

    def exchange_catchup(self, h: float, n_done: int):
        """One-shot catch-up at the window edge: swap post-insertion
        horizons + final done counts before the done-or-deadlock verdict.
        Returns ``(min peer horizon, peers_done_total)``."""
        frame = _encode_frame(_K_CATCH, (h, n_done), [])
        m = _INF
        peer_done = 0
        for peer in self.peers:
            kind, payload, _ = _decode_frame(self._xchg(peer, frame))
            if kind != _K_CATCH:
                raise SimError(f"shard protocol error: expected CATCH, got {kind}")
            ph, pdone = payload
            peer_done += pdone
            if ph < m:
                m = ph
        return m, peer_done

    def close(self) -> None:
        for c in self.conns.values():
            try:
                c.close()
            except OSError:
                pass


class _ShardDeadlock(SimError):
    """Internal: global deadlock detected; carries this shard's blocked list."""

    def __init__(self, lines: List[Tuple[int, str]]):
        super().__init__("shard deadlock")
        self.lines = lines


class _RemoteAbort(SimError):
    """Internal: another shard reported a failure; unwind quietly."""


def _describe_failure(exc: BaseException):
    cause = exc.__cause__
    cause_desc = None
    if cause is not None:
        cls = type(cause)
        cause_desc = (cls.__module__, cls.__qualname__, str(cause))
    return (type(exc).__name__, str(exc), getattr(exc, "rank", None), cause_desc)


def _rebuild_cause(desc) -> Optional[BaseException]:
    """Reconstruct a failure's ``__cause__`` from its shipped descriptor.

    Exceptions don't pickle reliably (arbitrary attributes, live frames),
    so workers ship ``(module, qualname, str)`` instead.  The class is
    resolved from the already-imported module graph — workers are forked
    from the fully-imported parent — which keeps ``isinstance`` checks and
    the message intact for every builtin and library exception type.
    """
    if desc is None:
        return None
    mod, qual, msg = desc
    cls = None
    try:
        obj: object = sys.modules.get(mod)
        for part in qual.split("."):
            obj = getattr(obj, part)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            cls = obj
    except Exception:
        cls = None
    if cls is None:
        return SimError(f"{mod}.{qual}: {msg}")
    try:
        exc = cls.__new__(cls)
        exc.args = (msg,)
        return exc
    except Exception:
        return SimError(f"{mod}.{qual}: {msg}")


def _rebuild_failure(kind: str, message: str, rank, cause_desc=None) -> BaseException:
    cause = _rebuild_cause(cause_desc)
    if kind == "RankFailure" and rank is not None:
        exc = RankFailure(rank, "")
        exc.args = (message,)
        exc.__cause__ = cause
        return exc
    if kind == "RankDeadError" and rank is not None:
        return RankDeadError(rank, message)
    if kind == "DeadlockError":
        return DeadlockError(message)
    if kind == "SimError":
        exc = SimError(message)
        exc.__cause__ = cause
        return exc
    exc = SimError(f"{kind}: {message}")
    exc.__cause__ = cause
    return exc


# ======================================================================
# The sharded scheduler
# ======================================================================
class ShardedScheduler(Scheduler):
    """Conservative-parallel scheduler: coroutine workers under a window loop.

    The object doubles as the parent-side facade (``run()`` forks workers
    and merges results) and, after fork, as the per-shard scheduler (the
    inherited fiber/dispatch machinery gated by the window bound).
    """

    backend = "sharded"

    def __init__(
        self,
        n_ranks: int,
        trace: Optional[TraceBuffer] = None,
        max_time: float = 1e6,
        backend: Optional[str] = None,
    ):
        super().__init__(n_ranks, trace=trace, max_time=max_time)
        # sharding plan (parent side; None until configure_sharding)
        self._node_of: Optional[List[int]] = None
        self._lookahead: Optional[float] = None
        self._parts: List[Tuple[int, int]] = [(0, n_ranks)]
        self._shard_of_rank: List[int] = [0] * n_ranks
        self._n_shards_used = 0
        self._per_shard_stats: List[dict] = []
        self._conduits: list = []
        # worker-side window state
        self._shard_id: Optional[int] = None
        self._local_lo = 0
        self._local_hi = n_ranks
        self._wbound = _INF
        self._chan: Optional[_Channel] = None
        self._outbox: dict = {}  # dst shard -> [envelope]
        # adaptive lookahead (protocol v2): the idle-provision multiplier
        # m adapts within [2, _LA_MULT_MAX]; REPRO_SHARD_LOOKAHEAD=fixed
        # pins m=2 (the v1 bound) for A/B determinism checks
        mode = os.environ.get(LOOKAHEAD_ENV, "adaptive").strip() or "adaptive"
        if mode not in ("adaptive", "fixed"):
            raise SimError(
                f"{LOOKAHEAD_ENV} must be 'adaptive' or 'fixed', got {mode!r}"
            )
        self._la_mode = mode
        self._la_mult = 2.0
        self._la_mult_peak = 2.0
        # CMB window observability (wall-clock; reported via stats() only —
        # nondeterministic, so it must never feed results or fingerprints)
        self._n_windows = 0
        self._n_quiet_windows = 0
        self._stall_env_s = 0.0
        self._stall_hor_s = 0.0
        # built-in envelope kinds; conduits add theirs via bind_shard
        self._env_handlers: dict = {
            "wake": lambda meta, ft: Scheduler.wake(self, meta, ft),
        }

    # --------------------------------------------------------- configuration
    def configure_sharding(self, machine, network) -> None:
        """Install the node map and lookahead (called by upcxx.run_spmd)."""
        node_of = [machine.node_of(r) for r in range(self.n_ranks)]
        if any(node_of[i] > node_of[i + 1] for i in range(len(node_of) - 1)):
            raise SimError("sharded backend requires block (node-contiguous) rank placement")
        self._node_of = node_of
        self._lookahead = float(network.latency_oneway)
        if self._lookahead <= 0:
            raise SimError("sharded backend needs a positive cross-node latency (lookahead)")

    def register_conduit(self, conduit) -> None:
        """Conduits register so workers can bind them to their shard."""
        self._conduits.append(conduit)

    def set_envelope_handlers(self, handlers: dict) -> None:
        self._env_handlers.update(handlers)

    # ------------------------------------------------------- shard-facing API
    def shard_is_local(self, rank: int) -> bool:
        return self._local_lo <= rank < self._local_hi

    def _rank_hosted(self, rank: int) -> bool:
        # Survivable-crash notifications may only touch ranks this shard
        # hosts: a raw wake cannot cross shards (see wake() below).
        if self._shard_id is None:
            return True
        return self.shard_is_local(rank)

    def wake(self, rid: int, at_time: float) -> None:
        if self._shard_id is not None and not (self._local_lo <= rid < self._local_hi):
            raise SimError(
                f"cross-shard wake of rank {rid} from shard {self._shard_id}: a "
                "raw wake cannot cross shards (no lookahead guarantee); route "
                "it through conduit messaging or emit_envelope(..., 'wake', rid) "
                "with fire_time >= now + lookahead"
            )
        Scheduler.wake(self, rid, at_time)

    def emit_envelope(self, dst_rank: int, fire_time: float, kind: str, meta) -> None:
        """Queue a cross-shard event for the shard owning ``dst_rank``.

        The stamp is minted here, on the producing side, so the merged
        event order matches what a single-process run would compute.
        **Lookahead contract (caller's responsibility):** ``fire_time``
        must be at least the current simulated time plus the configured
        lookahead — the conduit satisfies this because every cross-node
        message rides at least one ``latency_oneway``.
        """
        if fire_time != fire_time or fire_time < 0 or fire_time == _INF:
            raise ValueError(f"invalid envelope time: {fire_time!r}")
        stamp = self._make_stamp()
        shard = self._shard_of_rank[dst_rank]
        self._outbox.setdefault(shard, []).append((fire_time, stamp, kind, meta))
        # Emission clamp (protocol v2, docstring §2): the receiver can echo
        # this envelope no earlier than fire_time + lookahead, so the window
        # must not execute past that point.  Because fire_time >= now +
        # lookahead (the contract above), the clamp always lands strictly
        # ahead of the current frontier — it shrinks the remaining window,
        # never rewinds it.  This is what makes the adaptive idle-provision
        # multiplier sound for any value.
        la = self._lookahead
        if la is not None:
            nb = fire_time + la
            if nb < self._wbound:
                self._wbound = nb
                if nb < self._horizon:
                    self._horizon = nb

    # --------------------------------------------------- windowed scheduling
    # (_retarget is inherited: the base recomputation already folds in
    # self._wbound, the window-bound hook owned by this subclass.)

    def _checkpoint_slow(self, me) -> None:
        # Same globally-minimal delivery rule as the base, with two window
        # additions: events at or past the bound stay in the heap, and a
        # rank whose clock reached the bound parks on the ready heap until
        # the next window raises the bound past it.
        clock = me.clock
        eheap = self._eheap
        n_fired = 0
        version = self._ready_version
        top = self._peek_ready()
        gate = top[0] if top is not None else None
        try:
            while eheap:
                entry = eheap[0]
                et = entry[0]
                # self._wbound is re-read every iteration: a fired event can
                # emit an envelope, and the emission clamp may have just
                # lowered the bound below this entry.
                if et > clock or et >= self._wbound:
                    break
                if gate is not None and et > gate:
                    break  # an earlier rank must run first
                entry = heapq.heappop(eheap)
                n_fired += 1
                self._firing_lane = entry[1]
                self._fire_child = 0
                entry[2]()
                self._firing_lane = None
                if self._ready_version != version:
                    version = self._ready_version
                    top = self._peek_ready()
                    gate = top[0] if top is not None else None
        finally:
            self._firing_lane = None
            if n_fired:
                self._events.account_fired(n_fired)
        top = self._peek_ready()
        wbound = self._wbound  # re-read: the drain may have clamped it
        if (top is not None and top[0] < clock) or clock >= wbound:
            # Someone is earlier, or I ran into the window edge: yield.
            if _DEBUG and clock >= wbound:
                print(
                    f"[shard {self._shard_id}] park r{me.rid} clock={clock*1e9:.3f} "
                    f"wbound={wbound*1e9:.3f}",
                    file=sys.stderr, flush=True,
                )
            me.state = _READY
            self._push_ready(me)
            self._switch_out(me)
            if _DEBUG:
                print(
                    f"[shard {self._shard_id}] unpark r{me.rid} clock={me.clock*1e9:.3f} "
                    f"wbound={self._wbound*1e9:.3f} eheap_top="
                    f"{(self._eheap[0][0]*1e9 if self._eheap else -1):.3f}",
                    file=sys.stderr, flush=True,
                )
        else:
            self._retarget()

    def _dispatch(self) -> None:
        """Window-gated dispatch: exhausting the window releases the main
        loop (which then runs the envelope/horizon exchange) instead of
        declaring completion or deadlock — those are global decisions."""
        eheap = self._eheap
        n_fired = 0
        while True:
            if self._failure is not None:
                if n_fired:
                    self._events.account_fired(n_fired)
                self._abort_all()
                return
            wbound = self._wbound
            top = self._peek_ready()
            rclock = top[0] if top is not None and top[0] < wbound else None
            et = eheap[0][0] if eheap and eheap[0][0] < wbound else None
            if rclock is not None and (et is None or rclock < et):
                heapq.heappop(self._ready)
                self._ready_version += 1
                ctl = top[1]
                ctl.state = _RUNNING
                self.switches += 1
                self._current = ctl
                self._retarget()
                if n_fired:
                    self._events.account_fired(n_fired)
                if ctl.thread is None:
                    self._start_fiber(ctl)
                else:
                    ctl.baton.release()
                return
            if et is not None:
                # Event is due first (ties go to events, as in the base).
                entry = heapq.heappop(eheap)
                n_fired += 1
                self._firing_lane = entry[1]
                self._fire_child = 0
                entry[2]()
                self._firing_lane = None
                continue
            # Window exhausted: back to the window loop.
            if n_fired:
                self._events.account_fired(n_fired)
            self._current = None
            self._release_main()
            return

    # ------------------------------------------------------------ worker side
    def _local_horizon(self) -> float:
        h = _INF
        if self._eheap:
            h = self._eheap[0][0]
        top = self._peek_ready()
        if top is not None and top[0] < h:
            h = top[0]
        return h

    def _insert_envelope(self, env) -> None:
        ft, stamp, kind, meta = env
        fn = self._env_handlers.get(kind)
        if fn is None:
            raise SimError(f"no handler for cross-shard envelope kind {kind!r}")
        self._events.push_keyed(ft, stamp, lambda: fn(meta, ft))

    def _worker_main(self) -> List[Tuple[int, str]]:
        """The conservative window loop (protocol v2; docstring §2);
        returns on success, raises on failure or deadlock."""
        lo, hi = self._local_lo, self._local_hi
        chan = self._chan
        lookahead = self._lookahead if self._lookahead is not None else 0.0
        n_total = self.n_ranks
        adaptive = self._la_mode == "adaptive"
        mult = 2.0  # the v1-equivalent idle-provision multiplier
        # Fault fences: with a crash plan armed, no window may span a
        # scheduled crash time or its heartbeat-detection time.  Landing a
        # window boundary exactly on each fence means every envelope
        # stamped at-or-before it was shipped by a *completed* exchange —
        # the detection-time failure only ever aborts a window that starts
        # at the detect fence, so its dropped FAIL-frame outbox cannot
        # contain pre-detect traffic.  Combined with the per-shard detect
        # events below, every backend executes exactly the events that
        # precede detection, which is what keeps crash-run flight-recorder
        # rings bit-identical.  Bounds only affect window count, never
        # execution order, so the clamp is otherwise invisible.
        fences = self._fault_fences() if chan.peers else ()
        self._arm_remote_crash_detection()
        # All peers start at horizon 0, so the first bound is the lookahead.
        self._wbound = lookahead if chan.peers else _INF
        for f in fences:
            if 0.0 < f < self._wbound:
                self._wbound = f
                break
        for rid in range(lo, hi):
            ctl = self._ranks[rid]
            ctl.state = _READY
            self._push_ready(ctl)
        while True:
            self._dispatch()
            self._main_baton.acquire()
            self._main_release_guard.release()  # re-arm for the next window
            failing = self._failure is not None
            outbox = self._outbox
            self._outbox = {}
            self._n_windows += 1
            closed_bound = self._wbound
            # Pre-insertion horizon rides the envelope frame: what the peer
            # cannot see from it (this barrier's in-flight envelopes) is
            # covered by the e-words and by each sender's own-outbox floor.
            h_pre = self._local_horizon()
            t0 = time.perf_counter()
            incoming, _peer_done, fail_seen, peer_floor, traffic = (
                chan.exchange_window(outbox, self._n_done, h_pre, failing)
            )
            self._stall_env_s += time.perf_counter() - t0
            if failing:
                raise self._failure
            if fail_seen:
                self._fail(_RemoteAbort("another shard reported a failure"))
                raise self._failure
            own_e = _INF
            for envs in outbox.values():
                for env in envs:
                    if env[0] < own_e:
                        own_e = env[0]
            near_bound = False
            for env in sorted(incoming, key=lambda e: (e[0], e[1])):
                if env[0] <= closed_bound + lookahead:
                    near_bound = True
                if _DEBUG:
                    late = " LATE" if env[0] < closed_bound else ""
                    print(
                        f"[shard {self._shard_id}] env ft={env[0]*1e9:.3f} "
                        f"kind={env[2]} closed_wbound={closed_bound*1e9:.3f}{late}",
                        file=sys.stderr, flush=True,
                    )
                self._insert_envelope(env)
            h_post = self._local_horizon()
            floor = peer_floor if peer_floor < own_e else own_e
            if h_post == _INF and floor == _INF:
                # Globally-silent barrier.  Entry is symmetric (docstring
                # §2: every shard observes the same all-idle evidence), so
                # all shards meet in the one-shot catch-up exchange that
                # settles done-vs-deadlock from post-insertion state.
                t0 = time.perf_counter()
                peer_min, peers_done = chan.exchange_catchup(h_post, self._n_done)
                self._stall_hor_s += time.perf_counter() - t0
                if peer_min == _INF:
                    if self._n_done + peers_done == n_total:
                        return []
                    raise _ShardDeadlock(
                        [
                            (c.rid, f"  rank {c.rid} (clock {c.clock:.9f}s): "
                                    f"{c.block_reason or '<no reason>'}")
                            for c in self._ranks[lo:hi]
                            if c.state == _BLOCKED
                        ]
                    )
                floor = peer_min  # defensive: a peer still has work
            # Adaptive lookahead (docstring §2): widen the idle-provision
            # term after a globally-quiet barrier, snap back when traffic
            # lands within one hop of the closed bound.  Driven purely by
            # simulated-time observables, so it is deterministic — and the
            # bound never changes execution order, only window count.
            if not traffic:
                self._n_quiet_windows += 1
                if adaptive:
                    mult *= 2.0
                    if mult > _LA_MULT_MAX:
                        mult = _LA_MULT_MAX
            elif adaptive and near_bound:
                mult = 2.0
            self._la_mult = mult
            if mult > self._la_mult_peak:
                self._la_mult_peak = mult
            # The bound (docstring §2): every unknown future event either
            # descends from an already-visible horizon/in-flight envelope
            # (>= floor, so its effect lands >= floor + one hop) or from
            # our own future sends (>= h_post + mult hops, kept sound for
            # any mult by the emission clamp in emit_envelope).
            wb = min(floor + lookahead, h_post + mult * lookahead)
            for f in fences:
                if closed_bound < f < wb:
                    wb = f  # land one window boundary exactly on the fence
                    break
            self._wbound = wb

    def _fault_plan(self):
        """The active fault plan, if any conduit carries one."""
        for c in self._conduits:
            plan = getattr(c, "_faults", None)
            if getattr(plan, "crashes", None):
                return plan
        return None

    def _fault_fences(self) -> tuple:
        """Sorted simulated times no CMB window may span: every scheduled
        rank-crash time and its heartbeat-detection time."""
        plan = self._fault_plan()
        if plan is None:
            return ()
        ts = set()
        for t in plan.crashes.values():
            ts.add(t)
            ts.add(t + plan.detect_timeout)
        return tuple(sorted(ts))

    def _arm_remote_crash_detection(self) -> None:
        """Schedule heartbeat-detection failures for non-local crashes.

        The dying rank posts its own die/detect events in rank context,
        but those live in *its* shard's queue.  Every other shard arms the
        same detection here so that all shards stop executing at exactly
        the detect time — the single-process backend aborts there, and the
        sharded backend must not over-execute survivors past it (the
        flight-recorder freeze relies on the execution sets matching).
        The synthetic stamp (0.0, rank, 0) sorts with — and never collides
        with — real rank-context stamps, whose per-rank seqs start at 1.
        """
        plan = self._fault_plan()
        if plan is None:
            return
        lo, hi = self._local_lo, self._local_hi
        for r, t_die in sorted(plan.crashes.items()):
            if lo <= r < hi:
                continue  # the owner shard already has the rank's events
            t_detect = t_die + plan.detect_timeout

            if plan.survivable:
                # Scoped failure domain: every shard observes the death at
                # the same stamp and runs its local death listeners; the
                # run continues with the survivors.
                def _detect(r=r, t=t_detect, err=plan.dead_error(r)):
                    self._notify_dead(r, err, t)
            else:
                def _detect(err=plan.dead_error(r)):
                    if self._failure is None:
                        self._fail(err)

            self._events.push_keyed(t_detect, (0.0, r, 0), _detect)

    def _worker_stats(self) -> dict:
        ev = self._events.stats
        chan = self._chan
        n_retx = n_drop = n_dup = n_acks = 0
        agg_b = agg_u = 0
        agg_stall = 0.0
        for c in self._conduits:
            for ep in c.endpoints[self._local_lo : self._local_hi]:
                n_retx += ep.n_retx
                n_drop += ep.n_dropped
                n_dup += ep.n_dup
                n_acks += ep.n_acks
                agg_b += ep.agg_batches
                agg_u += ep.agg_updates
                agg_stall += ep.agg_credit_stall_s
        return {
            "shard": self._shard_id,
            "ranks": [self._local_lo, self._local_hi],
            "switches": self.switches,
            "events_posted": ev["posted"],
            "events_fired": ev["fired"],
            # CMB window loop (wall-clock observability)
            "windows": self._n_windows,
            "quiet_windows": self._n_quiet_windows,
            "window_stall_s": self._stall_env_s,
            "horizon_wait_s": self._stall_hor_s,
            "envelopes_sent": 0 if chan is None else chan.n_env_sent,
            "envelopes_received": 0 if chan is None else chan.n_env_recv,
            "pipe_bytes_sent": 0 if chan is None else chan.bytes_sent,
            "pipe_bytes_received": 0 if chan is None else chan.bytes_recv,
            # protocol-v2 batching efficiency
            "env_frames_sent": 0 if chan is None else chan.n_frames_sent,
            "sentinel_frames_sent": 0 if chan is None else chan.n_sentinels_sent,
            "lookahead_mode": self._la_mode,
            "lookahead_mult_final": self._la_mult,
            "lookahead_mult_peak": self._la_mult_peak,
            # reliability layer (fault injection), local endpoints only
            "frames_retransmitted": n_retx,
            "frames_dropped": n_drop,
            "frames_duplicated": n_dup,
            "acks": n_acks,
            # aggregation-layer accounting, local endpoints only
            "agg_batches": agg_b,
            "agg_updates": agg_u,
            "agg_credit_stall_s": agg_stall,
        }

    def _collect_metrics(self) -> dict:
        out: dict = {}
        for c in self._conduits:
            m = getattr(c, "metrics", None)
            if m is not None:
                for r in range(self._local_lo, self._local_hi):
                    rm = m._ranks.get(r)
                    if rm is not None:
                        out[r] = rm
        return out

    def _collect_spans(self) -> list:
        """This shard's span records (plain tuples, pickle-safe)."""
        for c in self._conduits:
            sp = getattr(c, "spans", None)
            if sp is not None:
                return list(sp._records)
        return []

    def _collect_telemetry(self) -> dict:
        """This shard's per-rank telemetry (pickle-safe RankTelemetry).

        Shipped on *every* payload arm — ok, deadlock, peer-abort and FAIL
        frames alike — so the parent can assemble a blackbox bundle even
        when a shard aborts.  Defensive: a shard failing before setup has
        no conduits/rank range yet, which must not mask the real failure.
        """
        out: dict = {}
        try:
            for c in self._conduits:
                tel = getattr(c, "telemetry", None)
                if tel is not None:
                    for r in range(self._local_lo, self._local_hi):
                        rt = tel._ranks.get(r)
                        if rt is not None:
                            out[r] = rt
                    break
        except Exception:
            return {}
        return out

    def _worker_entry(self, shard_id: int, parent_conn, own_conns, all_conns) -> None:
        payload = None
        try:
            # Drop every inherited pipe end that is not ours, so a dead
            # peer is observed as EOF instead of a silent hang.
            keep = set(id(c) for c in own_conns.values())
            keep.add(id(parent_conn))
            for c in all_conns:
                if id(c) not in keep:
                    try:
                        c.close()
                    except OSError:
                        pass
            self._shard_id = shard_id
            self._local_lo, self._local_hi = self._parts[shard_id]
            self._chan = _Channel(shard_id, own_conns)
            for c in self._conduits:
                c.bind_shard(self)
            self._worker_main()
            for rid in range(self._local_lo, self._local_hi):
                ctl = self._ranks[rid]
                if ctl.thread is not None:
                    ctl.thread.join(timeout=30.0)
            payload = (
                "ok",
                {
                    "results": {
                        rid: self._ranks[rid].result
                        for rid in range(self._local_lo, self._local_hi)
                    },
                    "trace": list(self.trace._events) if self.trace.enabled else [],
                    "stats": self._worker_stats(),
                    "metrics": self._collect_metrics(),
                    "spans": self._collect_spans(),
                    "telemetry": self._collect_telemetry(),
                    # crashed local ranks whose heartbeat timeout never
                    # fired (everyone else finished first): rank -> message
                    "dead": {r: str(err) for r, err in self._dead_ranks.items()},
                },
            )
        except _ShardDeadlock as exc:
            payload = ("deadlock", exc.lines, self._collect_telemetry())
        except _RemoteAbort:
            payload = ("peer-abort", None, self._collect_telemetry())
        except BaseException as exc:  # noqa: BLE001 - ship any failure home
            payload = ("fail", _describe_failure(exc), self._collect_telemetry())
        try:
            try:
                parent_conn.send_bytes(_dumps(payload))
            except Exception as exc:  # unpicklable result objects etc.
                parent_conn.send_bytes(
                    _dumps(("fail", ("SimError", f"shard {shard_id} could not ship its "
                                                 f"results: {exc}", None)))
                )
        finally:
            parent_conn.close()
            if self._chan is not None:
                self._chan.close()

    # ------------------------------------------------------------ parent side
    def _plan_shards(self) -> int:
        env = os.environ.get(SHARDS_ENV, "").strip()
        if env:
            requested = int(env)
            if requested < 1:
                raise ValueError(f"{SHARDS_ENV} must be >= 1, got {requested}")
        else:
            requested = os.cpu_count() or 1
        node_of = self._node_of
        if node_of is None:
            # No machine topology: no lookahead, so everything is one shard.
            node_of = [0] * self.n_ranks
        n_nodes = node_of[-1] + 1 if node_of else 1
        n_shards = max(1, min(requested, n_nodes))
        # Even contiguous node chunks; block rank placement makes the
        # resulting per-shard rank ranges contiguous too.
        shard_of_node = [(n * n_shards) // n_nodes for n in range(n_nodes)]
        self._shard_of_rank = [shard_of_node[node_of[r]] for r in range(self.n_ranks)]
        parts: List[Tuple[int, int]] = []
        start = 0
        for s in range(n_shards):
            end = start
            while end < self.n_ranks and self._shard_of_rank[end] == s:
                end += 1
            parts.append((start, end))
            start = end
        if start != self.n_ranks:
            raise SimError("internal error: shard partition does not cover all ranks")
        self._parts = parts
        self._n_shards_used = n_shards
        return n_shards

    def _run(self, fn: Callable[[int], object]) -> List[object]:
        self._fn = fn
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise SimError("backend='sharded' requires fork-capable multiprocessing") from exc
        n_shards = self._plan_shards()
        pair_conns: List[Dict[int, object]] = [{} for _ in range(n_shards)]
        all_conns: list = []
        for i in range(n_shards):
            for j in range(i + 1, n_shards):
                a, b = ctx.Pipe(True)
                pair_conns[i][j] = a
                pair_conns[j][i] = b
                all_conns.extend((a, b))
        parent_conns = []
        procs = []
        payloads: List[tuple] = []
        try:
            child_ws = []
            for s in range(n_shards):
                pr, pw = ctx.Pipe(False)
                parent_conns.append(pr)
                child_ws.append(pw)
                all_conns.append(pw)
            for s in range(n_shards):
                p = ctx.Process(
                    target=self._worker_entry,
                    args=(s, child_ws[s], pair_conns[s], all_conns),
                    name=f"simshard-{s}",
                    daemon=True,
                )
                p.start()
                procs.append(p)
            for c in all_conns:
                c.close()
            for s, pr in enumerate(parent_conns):
                try:
                    payloads.append(_loads(pr.recv_bytes()))
                except (EOFError, OSError):
                    payloads.append(("fail", ("SimError", f"shard {s} terminated "
                                                          "without reporting", None)))
            for p in procs:
                p.join(timeout=30.0)
        finally:
            for pr in parent_conns:
                try:
                    pr.close()
                except OSError:
                    pass
            for p in procs:
                if p.is_alive():
                    p.terminate()
        return self._merge(payloads)

    def _release(self) -> None:
        super()._release()
        self._env_handlers = {}  # the built-in "wake" handler closes over self

    def _merge(self, payloads: List[tuple]) -> List[object]:
        # Flight-recorder state must survive *any* outcome, so it is
        # harvested before the failure arms below get a chance to raise.
        self._harvest_telemetry(payloads)
        failures = [
            (s, pl[1]) for s, pl in enumerate(payloads) if pl[0] == "fail"
        ]
        if failures:
            kind, message, rank, *rest = failures[0][1]
            self._failure = _rebuild_failure(kind, message, rank, *rest)
            raise self._failure
        deadlock_lines = [ln for pl in payloads if pl[0] == "deadlock" for ln in pl[1]]
        if deadlock_lines:
            deadlock_lines.sort()
            self._failure = DeadlockError(
                "simulation deadlock: no runnable ranks and no pending events.\n"
                + "\n".join(line for _, line in deadlock_lines)
            )
            raise self._failure
        if any(pl[0] != "ok" for pl in payloads):
            self._failure = SimError(f"shard protocol error: {[p[0] for p in payloads]}")
            raise self._failure
        results: List[object] = [None] * self.n_ranks
        per_shard = []
        posted = fired = 0
        metrics_merged: dict = {}
        trace_lists = []
        span_lists = []
        dead_merged: dict = {}
        for pl in payloads:
            body = pl[1]
            dead_merged.update(body.get("dead", {}))
            for rid, res in body["results"].items():
                results[rid] = res
            st = body["stats"]
            per_shard.append(st)
            self.switches += st["switches"]
            posted += st["events_posted"]
            fired += st["events_fired"]
            metrics_merged.update(body["metrics"])
            trace_lists.append(body["trace"])
            span_lists.append(body.get("spans", []))
        # fold the merged counters into the (otherwise unused) parent queue
        self._events._count_posted += posted
        self._events._count_fired += fired
        self._per_shard_stats = per_shard
        if self.trace.enabled:
            self.trace.extend_canonical(trace_lists)
        if metrics_merged:
            for c in self._conduits:
                m = getattr(c, "metrics", None)
                if m is not None:
                    m._ranks.update(metrics_merged)
                    break
        if any(span_lists):
            for c in self._conduits:
                sp = getattr(c, "spans", None)
                if sp is not None:
                    sp.extend_canonical(span_lists)
                    break
        if dead_merged and not self._survivable:
            # same verdict the single-process backend reaches at run() end
            rank = min(dead_merged)
            self._failure = RankDeadError(rank, dead_merged[rank])
            raise self._failure
        return results

    def _harvest_telemetry(self, payloads: List[tuple]) -> None:
        """Merge shipped per-rank telemetry into the job-level sink.

        Non-ok payloads carry telemetry as a trailing tuple element (the
        synthetic "terminated without reporting" payload has none).
        """
        merged: dict = {}
        for pl in payloads:
            if pl[0] == "ok":
                merged.update(pl[1].get("telemetry", {}))
            elif len(pl) > 2 and pl[2]:
                merged.update(pl[2])
        if not merged:
            return
        for c in self._conduits:
            tel = getattr(c, "telemetry", None)
            if tel is not None:
                tel.merge_ranks(merged)
                break

    def stats(self) -> dict:
        d = Scheduler.stats(self)
        d["n_shards"] = self._n_shards_used
        d["per_shard"] = self._per_shard_stats
        ps = self._per_shard_stats
        if ps:
            # window counts are symmetric (every shard walks the same loop);
            # report the max so partially-reported failures stay visible
            d["windows"] = max(st.get("windows", 0) for st in ps)
            d["window_stall_s"] = sum(st.get("window_stall_s", 0.0) for st in ps)
            d["horizon_wait_s"] = sum(st.get("horizon_wait_s", 0.0) for st in ps)
            d["envelopes_exchanged"] = sum(st.get("envelopes_sent", 0) for st in ps)
            d["pipe_bytes"] = sum(st.get("pipe_bytes_sent", 0) for st in ps)
            d["quiet_windows"] = max(st.get("quiet_windows", 0) for st in ps)
            d["env_frames"] = sum(st.get("env_frames_sent", 0) for st in ps)
            d["sentinel_frames"] = sum(st.get("sentinel_frames_sent", 0) for st in ps)
            d["lookahead_mode"] = ps[0].get("lookahead_mode", "adaptive")
            d["lookahead_mult_peak"] = max(
                st.get("lookahead_mult_peak", 2.0) for st in ps
            )
            d["frames_retransmitted"] = sum(st.get("frames_retransmitted", 0) for st in ps)
            d["frames_dropped"] = sum(st.get("frames_dropped", 0) for st in ps)
            d["frames_duplicated"] = sum(st.get("frames_duplicated", 0) for st in ps)
            d["acks"] = sum(st.get("acks", 0) for st in ps)
            d["agg_batches"] = sum(st.get("agg_batches", 0) for st in ps)
            d["agg_updates"] = sum(st.get("agg_updates", 0) for st in ps)
            d["agg_credit_stall_s"] = sum(st.get("agg_credit_stall_s", 0.0) for st in ps)
        return d

