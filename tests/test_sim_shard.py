"""Unit tests for the sharded backend's building blocks.

The end-to-end three-way determinism matrix lives in
``test_backend_determinism.py``; this module pins the pieces the window
protocol is built from — the cloudpickle-lite function marshaller, the
raw-blob frame codec, shard planning, cross-shard failure transport, the
canonical trace order, and the sharded-specific error surfaces.
"""

import os

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.sim import shard as shard_mod
from repro.sim.coop import Scheduler
from repro.sim.errors import RankFailure, SimError
from repro.sim.shard import (
    LOOKAHEAD_ENV,
    SHARDS_ENV,
    _BLOB_MIN,
    _Channel,
    _K_CATCH,
    _K_ENV2,
    _K_FAIL,
    _K_SENT,
    _SENTINEL_FRAME,
    _decode_env_frame,
    _decode_frame,
    _describe_failure,
    _dumps,
    _encode_env_frame,
    _encode_frame,
    _join_blobs,
    _loads,
    _rebuild_failure,
    _split_blobs,
    ShardedScheduler,
)
from repro.util.trace import TraceBuffer
from tests.golden import shards

_INF = float("inf")


# ------------------------------------------------------- function marshalling
def _module_level_fn(x):
    return x + 1


def test_marshal_module_function_by_reference():
    fn = _loads(_dumps(_module_level_fn))
    assert fn is _module_level_fn  # same module in-process: by-ref pickle


def test_marshal_lambda_by_value():
    fn = _loads(_dumps(lambda x: x * 3))
    assert fn(14) == 42


def test_marshal_closure_cells():
    base = 100

    def add(x):
        return base + x

    fn = _loads(_dumps(add))
    assert fn(7) == 107


def test_marshal_defaults_and_kwdefaults():
    def f(a, b=10, *, c=20):
        return a + b + c

    fn = _loads(_dumps(f))
    assert fn(1) == 31
    assert fn(1, b=2, c=3) == 6


def test_marshal_globals_bound_by_module():
    # a lambda referencing a module global resolves it post-transport
    fn = _loads(_dumps(lambda: _module_level_fn(41)))
    assert fn() == 42


def test_marshal_nested_payload():
    payload = ("tag", [lambda: 7, {"k": (1, 2.5, b"xy")}], None)
    out = _loads(_dumps(payload))
    assert out[0] == "tag"
    assert out[1][0]() == 7
    assert out[1][1] == {"k": (1, 2.5, b"xy")}


# ------------------------------------------------------------- blob framing
def test_split_blobs_extracts_large_bytes():
    big = bytes(range(256)) * 4
    small = b"tiny"
    blobs = []
    marked = _split_blobs((1, big, [small, big], {"d": bytearray(big)}), blobs)
    assert len(blobs) == 3  # two bytes + one bytearray, small stays inline
    assert _join_blobs(marked, blobs) == (1, big, [small, big], {"d": big})


def test_split_blobs_threshold():
    just_under = b"x" * (_BLOB_MIN - 1)
    at = b"y" * _BLOB_MIN
    blobs = []
    marked = _split_blobs((just_under, at), blobs)
    assert blobs == [at]
    assert _join_blobs(marked, blobs) == (just_under, at)


def test_frame_roundtrip_with_blobs():
    big = os.urandom(1024)
    envs = [(1.5e-6, (0.0, 0, 1), "put", (0, 1, 0, big, 7))]
    blobs = []
    wire_envs = [(ft, st, k, _split_blobs(m, blobs)) for ft, st, k, m in envs]
    frame = _encode_frame(0, (0, wire_envs), blobs)
    kind, payload, rblobs = _decode_frame(frame)
    assert kind == 0
    n_done, renvs = payload
    assert n_done == 0
    restored = [(ft, st, k, _join_blobs(m, rblobs)) for ft, st, k, m in renvs]
    assert restored == envs


def test_frame_roundtrip_empty():
    kind, payload, blobs = _decode_frame(_encode_frame(2, None, []))
    assert kind == 2 and payload is None and blobs == []


# --------------------------------------------- protocol-v2 batch frame codec
def test_env_frame_roundtrip_empty_batch():
    frame = _encode_env_frame(3, 1.5e-6, _INF, [])
    assert frame[0] == _K_ENV2
    n_done, h, e_other, envs = _decode_env_frame(frame)
    assert (n_done, h, e_other, envs) == (3, 1.5e-6, _INF, [])


def test_env_frame_hot_put_meta_skips_pickler():
    """The hot cross-shard put shape (flat scalar/bytes tuple) must ride
    the tagged serializer's raw length-prefixed path: the payload bytes
    appear verbatim in the frame, no pickle opcodes around them."""
    big = os.urandom(300)  # > the 256 B raw-frame boundary
    meta = (0, 1, 64, big, 7, None, None, 300, None)
    env = (2.5e-6, (1.25e-6, 0, 3), "put", meta)
    frame = _encode_env_frame(1, 9.5e-7, 2.5e-6, [env])
    assert big in frame  # raw path: verbatim payload bytes
    n_done, h, e_other, envs = _decode_env_frame(frame)
    assert (n_done, h, e_other) == (1, 9.5e-7, 2.5e-6)
    assert envs == [env]


def test_env_frame_roundtrip_mixed_batch():
    """Packed metas, pickled callables, nested containers, and the
    whole-envelope fallback for a stamp outside the fixed layout — all in
    one batch, in order."""
    small = b"x" * 255  # just under the raw-frame boundary
    at = b"y" * 256  # exactly at it
    envs = [
        (1e-6, (0.0, 0, 1), "put", (0, 1, 0, small, 1, None, None, 255, None)),
        (2e-6, (0.5e-6, 1, 2, 3), "am", (1, 0, 7, at, 256, 9, {"k": (1, 2.5)})),
        (3e-6, (0.0, 2, 3), "rpc", (lambda x: x * 3, 14)),
        (4e-6, ("odd-stamp",), "wake", 5),  # stamp[0] not a float: raw fallback
        (5e-6, (0.0, 3, 4), "cpl", (11, True, None)),
    ]
    n_done, h, e_other, out = _decode_env_frame(_encode_env_frame(0, _INF, _INF, envs))
    assert (n_done, h, e_other) == (0, _INF, _INF)
    assert len(out) == len(envs)
    for got, want in zip(out, envs):
        if callable(want[3][0] if isinstance(want[3], tuple) else None):
            assert got[:3] == want[:3]
            fn, arg = got[3]
            assert fn(arg) == 42
        else:
            assert got == want


def test_env_frame_fuzz_roundtrip():
    """Seeded fuzz over batch sizes, stamp shapes, payload sizes straddling
    the 256 B raw boundary, and meta shapes."""
    import random

    rng = random.Random(0xC0FFEE)
    kinds = ["put", "get", "am", "cpl", "wake", "custom-kind"]
    for _ in range(60):
        envs = []
        for _ in range(rng.randrange(0, 7)):
            stamp = tuple(
                [rng.random() * 1e-5]
                + [rng.randrange(-(2**40), 2**40) for _ in range(rng.randrange(0, 4))]
            )
            shape = rng.randrange(4)
            if shape == 0:
                meta = (
                    rng.randrange(16),
                    rng.randrange(16),
                    rng.randrange(4096),
                    os.urandom(rng.choice([0, 1, 255, 256, 257, 600])),
                    rng.randrange(100),
                    None,
                    None,
                    rng.randrange(2**20),
                    None,
                )
            elif shape == 1:
                meta = {"a": [1, 2.5, "s"], "b": os.urandom(rng.randrange(300))}
            elif shape == 2:
                meta = rng.randrange(1000)
            else:
                meta = (rng.randrange(16), (rng.random(), rng.randrange(8), 1), b"tok")
            envs.append(
                (rng.random() * 1e-4, stamp, rng.choice(kinds), meta)
            )
        hdr = (
            rng.randrange(64),
            rng.choice([_INF, rng.random() * 1e-4]),
            rng.choice([_INF, rng.random() * 1e-4]),
        )
        got = _decode_env_frame(_encode_env_frame(hdr[0], hdr[1], hdr[2], envs))
        assert got == (hdr[0], hdr[1], hdr[2], envs)


# ----------------------------------------------- protocol-v2 channel barrier
def _channel_pair():
    import multiprocessing as mp

    a, b = mp.Pipe()
    return _Channel(0, {1: a}), _Channel(1, {0: b})


def _on_thread(fn):
    """Run ``fn`` on a thread, return a handle whose .result() joins."""
    import threading

    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # surfaced by .result()
            box["error"] = exc

    t = threading.Thread(target=run)
    t.start()

    class H:
        def result(self):
            t.join(timeout=30)
            assert not t.is_alive(), "peer side of the exchange hung"
            if "error" in box:
                raise box["error"]
            return box["value"]

    return H()


def test_exchange_window_single_barrier_and_sentinels():
    c0, c1 = _channel_pair()
    env = (2e-6, (0.0, 0, 1), "wake", 3)

    # window 1: 0 ships an envelope, 1 is idle — both pay a full frame
    # (first exchange: no cached header to fall back on)
    peer = _on_thread(lambda: c1.exchange_window({}, 0, _INF, False))
    inc0, done0, fail0, floor0, traffic0 = c0.exchange_window({1: [env]}, 0, 1e-6, False)
    inc1, done1, fail1, floor1, traffic1 = peer.result()
    assert inc0 == [] and not fail0
    assert inc1 == [env] and not fail1
    assert floor0 == _INF  # 1 advertised (h=inf, e=inf)
    assert floor1 == 1e-6  # 0's piggybacked pre-insertion horizon
    assert traffic0 and traffic1
    assert c0.n_sentinels_sent == 0 and c1.n_sentinels_sent == 0
    assert c0.n_env_sent == 1 and c1.n_env_recv == 1

    # window 2: both idle, headers unchanged — one byte each way
    b0_before, b1_before = c0.bytes_sent, c1.bytes_sent
    peer = _on_thread(lambda: c1.exchange_window({}, 0, _INF, False))
    inc0, _, _, floor0, traffic0 = c0.exchange_window({}, 0, 1e-6, False)
    inc1, _, _, floor1, traffic1 = peer.result()
    assert inc0 == [] and inc1 == []
    assert floor0 == _INF and floor1 == 1e-6  # cached headers still in force
    assert not traffic0 and not traffic1
    assert c0.n_sentinels_sent == 1 and c1.n_sentinels_sent == 1
    assert c0.bytes_sent - b0_before == 1 == len(_SENTINEL_FRAME)
    assert c1.bytes_sent - b1_before == 1

    # window 3: 1's header changes (a rank finished) — full frame one way,
    # sentinel the other
    peer = _on_thread(lambda: c1.exchange_window({}, 1, _INF, False))
    inc0, done0, _, _, _ = c0.exchange_window({}, 0, 1e-6, False)
    peer.result()
    assert done0 == 1  # the refreshed header reached us
    assert c0.n_sentinels_sent == 2 and c1.n_sentinels_sent == 1


def test_exchange_catchup_roundtrip():
    c0, c1 = _channel_pair()
    peer = _on_thread(lambda: c1.exchange_catchup(_INF, 3))
    m0, done0 = c0.exchange_catchup(_INF, 1)
    m1, done1 = peer.result()
    assert m0 == _INF and m1 == _INF
    assert done0 == 3 and done1 == 1


def test_exchange_window_fail_frame():
    c0, c1 = _channel_pair()
    peer = _on_thread(lambda: c1.exchange_window({}, 0, _INF, True))
    _, _, fail_seen, _, _ = c0.exchange_window({}, 0, 1e-6, False)
    peer.result()
    assert fail_seen


def test_sentinel_before_any_header_raises():
    c0, _c1 = _channel_pair()
    conn1 = _c1.conns[0]
    peer = _on_thread(lambda: (conn1.send_bytes(_SENTINEL_FRAME), conn1.recv_bytes()))
    with pytest.raises(SimError, match="sentinel before any header"):
        c0.exchange_window({}, 0, 1e-6, False)
    peer.result()


def test_frame_kind_bytes_are_distinct():
    assert len({_K_ENV2, _K_SENT, _K_CATCH, _K_FAIL}) == 4
    assert _SENTINEL_FRAME == bytes([_K_SENT])


# ------------------------------------------------------------ shard planning
def _plan(n_ranks, ppn, shards_env):
    from repro.gasnet.machine import Machine
    from repro.gasnet.network import AriesNetwork

    with shards(shards_env):
        s = Scheduler(n_ranks, backend="sharded")
        s.configure_sharding(Machine.for_ranks(n_ranks, ppn, name="haswell"), AriesNetwork())
        n = s._plan_shards()
        return n, s._parts, s._shard_of_rank


def test_plan_even_split():
    n, parts, of_rank = _plan(8, 1, 4)  # 8 nodes, 4 shards
    assert n == 4
    assert parts == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert of_rank == [0, 0, 1, 1, 2, 2, 3, 3]


def test_plan_clamped_to_node_count():
    n, parts, _ = _plan(4, 2, 16)  # 2 nodes: at most 2 shards
    assert n == 2
    assert parts == [(0, 2), (2, 4)]


def test_plan_uneven_nodes():
    n, parts, of_rank = _plan(6, 2, 2)  # 3 nodes over 2 shards
    assert n == 2
    assert [hi - lo for lo, hi in parts] == [4, 2]  # nodes 0,1 | 2
    assert of_rank == [0, 0, 0, 0, 1, 1]


def test_plan_single_shard_without_machine():
    with shards(8):
        s = Scheduler(4, backend="sharded")  # no configure_sharding
        assert s._plan_shards() == 1
        assert s._parts == [(0, 4)]


def test_plan_rejects_bad_env(monkeypatch):
    monkeypatch.setenv(SHARDS_ENV, "0")
    s = Scheduler(2, backend="sharded")
    with pytest.raises(ValueError):
        s._plan_shards()


# ------------------------------------------------------- failure transport
def test_failure_roundtrip_rank_failure():
    exc = RankFailure(3, "ValueError: boom")
    exc.__cause__ = ValueError("boom")
    kind, msg, rank, cause = _describe_failure(exc)
    rebuilt = _rebuild_failure(kind, msg, rank, cause)
    assert isinstance(rebuilt, RankFailure)
    assert rebuilt.rank == 3
    assert str(rebuilt) == str(exc)
    assert isinstance(rebuilt.__cause__, ValueError)
    assert str(rebuilt.__cause__) == "boom"


def test_failure_roundtrip_unknown_type():
    rebuilt = _rebuild_failure("KeyError", "'missing'", None)
    assert isinstance(rebuilt, SimError)
    assert "KeyError" in str(rebuilt)


# ------------------------------------------------------- canonical traces
def test_trace_canonical_sort_is_stable_per_rank():
    t = TraceBuffer()
    t.record(2.0, 0, "block", "b")
    t.record(1.0, 1, "block", "x")
    t.record(1.0, 0, "block", "a")
    t.record(1.0, 1, "resume", "x")  # same (time, rank): order must persist
    ev = t.canonical_events()
    assert [(e.time, e.rank, e.kind) for e in ev] == [
        (1.0, 0, "block"),
        (1.0, 1, "block"),
        (1.0, 1, "resume"),
        (2.0, 0, "block"),
    ]


def test_trace_extend_canonical_merges_shards():
    a, b = TraceBuffer(), TraceBuffer()
    a.record(1.0, 0, "block", "p")
    a.record(3.0, 0, "resume", "p")
    b.record(1.0, 1, "block", "q")
    b.record(2.0, 1, "resume", "q")
    merged = TraceBuffer()
    merged.extend_canonical([list(a._events), list(b._events)])
    single = TraceBuffer()
    for t_, r_, k_, d_ in [(1.0, 0, "block", "p"), (1.0, 1, "block", "q"),
                           (2.0, 1, "resume", "q"), (3.0, 0, "resume", "p")]:
        single.record(t_, r_, k_, d_)
    assert merged.canonical_fingerprint() == single.canonical_fingerprint()
    assert merged.fingerprint() == single.fingerprint()


# ----------------------------------------------------- sharded error surfaces
@pytest.fixture
def two_shards(monkeypatch):
    monkeypatch.setenv(SHARDS_ENV, "2")


def test_cross_shard_segment_access_raises(two_shards):
    """Reading a remote rank's segment directly (global_ptr.local() style)
    cannot work across address spaces and must raise a clear SimError."""

    def body():
        me = upcxx.rank_me()
        ptr = upcxx.new_array(np.uint8, 16)
        remote = upcxx.broadcast(ptr, root=0).wait()
        upcxx.barrier()
        if me == 1:
            # rank 1 (shard 1) touching rank 0's segment (shard 0)
            upcxx.runtime_here().world.conduit.segment(remote.rank)
        upcxx.barrier()
        return me

    with pytest.raises(RankFailure, match="segment access"):
        upcxx.run_spmd(body, 2, platform="haswell", ppn=1, backend="sharded")


def test_sharded_rank_failure_has_origin_rank(two_shards):
    def body():
        if upcxx.rank_me() == 1:
            raise RuntimeError("deliberate")
        upcxx.barrier()
        return 0

    with pytest.raises(RankFailure) as ei:
        upcxx.run_spmd(body, 2, platform="haswell", ppn=1, backend="sharded")
    assert ei.value.rank == 1
    assert "deliberate" in str(ei.value)


def test_sharded_deadlock_message_matches_single_process(two_shards):
    from repro.gasnet.machine import Machine
    from repro.gasnet.network import AriesNetwork
    from repro.sim.coop import current_scheduler
    from repro.sim.errors import DeadlockError

    def body(r):
        s = current_scheduler()
        s.charge(1e-6)
        if r == 1:
            s.block("waiting forever")
        return r

    msgs = {}
    for backend in ("coroutines", "sharded"):
        sched = Scheduler(4, backend=backend)
        if backend == "sharded":
            sched.configure_sharding(Machine.for_ranks(4, 1, name="haswell"), AriesNetwork())
        with pytest.raises(DeadlockError) as ei:
            sched.run(body)
        msgs[backend] = str(ei.value)
    assert msgs["coroutines"] == msgs["sharded"]


def test_sharded_profile_writes_for_remote_shard_rank(two_shards, monkeypatch, tmp_path):
    """REPRO_PROFILE=1 profiles the shard that owns REPRO_PROFILE_RANK and
    writes REPRO_PROFILE_OUT from that worker process."""
    from repro.util import profile as prof

    out = tmp_path / "rank3.pstats"
    monkeypatch.setenv(prof.PROFILE_ENV, "1")
    monkeypatch.setenv(prof.PROFILE_RANK_ENV, "3")
    monkeypatch.setenv(prof.PROFILE_OUT_ENV, str(out))

    def body():
        me = upcxx.rank_me()
        n = upcxx.rank_n()
        fut = upcxx.rpc((me + 1) % n, lambda: upcxx.rank_me())
        assert fut.wait() == (me + 1) % n
        upcxx.barrier()
        return upcxx.sim_now()

    upcxx.run_spmd(body, 4, platform="haswell", ppn=1, backend="sharded")
    assert out.exists() and out.stat().st_size > 0
    import pstats

    assert len(pstats.Stats(str(out)).stats) > 0


def test_sharded_metrics_merge_across_shards(two_shards):
    """Per-rank metrics collected in the workers surface in the parent's
    Metrics object, for every rank on every shard."""
    from repro.util.metrics import Metrics

    def body():
        me = upcxx.rank_me()
        n = upcxx.rank_n()
        dest = upcxx.broadcast(upcxx.new_array(np.uint8, 64), root=1).wait()
        upcxx.barrier()
        if me == 0:
            upcxx.rput(bytes(64), dest).wait()
        upcxx.barrier()
        return upcxx.sim_now()

    results = {}
    for backend in ("coroutines", "sharded"):
        m = Metrics(enabled=True)
        upcxx.run_spmd(body, 2, platform="haswell", ppn=1, backend=backend, metrics=m)
        results[backend] = m
    m_c, m_s = results["coroutines"], results["sharded"]
    assert set(m_s._ranks) == set(m_c._ranks)
    # rank 0 injected the put on shard 0; identical accounting either way
    assert m_s.rank(0).nic_bytes == m_c.rank(0).nic_bytes


def test_sharded_scheduler_is_scheduler():
    s = Scheduler(2, backend="sharded")
    assert isinstance(s, ShardedScheduler)
    assert isinstance(s, Scheduler)
