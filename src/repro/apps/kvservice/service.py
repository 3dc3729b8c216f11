"""The KV service: a DHT front end over the runtime aggregation layer.

Every rank is both a *front end* (serving a :class:`TrafficModel` client
stream) and a *shard owner* (holding a slice of the key space).  Writes
flow through a :class:`repro.upcxx.replication.ReplicatedStore` with
last-writer-wins combine — destination-batched, dwell-bounded, credit
flow-controlled, fanned out to ``replication`` owners per key, same-key
writes of one batch folded at the sender before it ships (the keys are
Zipf: most of a saturated batch is duplicates) — and reads go through
its hot-key cache, targeted at the key's current primary, which keeps
the sharer list a write consumes to invalidate it; concurrent misses on
one key share one read-through.

Robustness features (both off by default, preserving the bare-store
behavior bit-for-bit):

- **Replication + failover** (``replication >= 2``): under a survivable
  :class:`~repro.sim.faults.FaultPlan`, a crashed rank costs neither the
  run nor (with enough copies) any data — outstanding reads retarget to
  a surviving replica, writes complete on the first surviving owner's
  ack, and background re-replication restores the copy count.  A write
  whose every owner died before any ack is counted in ``writes_lost``
  rather than served.
- **Admission control** (``admission_limit``): when the open-loop
  backlog (issued-but-unfinished requests) reaches the limit, new
  requests are rejected with :class:`Overloaded` instead of queueing
  without bound past the saturation knee; the shed rate is reported.

SLO measurement is open loop: each request is stamped with its *arrival*
time from the traffic model, and its latency is ``completion - arrival``
(sojourn time), so queueing delay from a saturated service is measured,
not hidden.  Write completion is the first aggregation ack covering the
update; a read is a record whose token is its arrival time, and it
completes when the replication layer's read hook fires (cache hits
complete inline).  Latencies feed per-op-kind
:class:`repro.util.metrics.DwellHistogram` instances whose p50/p95/p99/
p999 come out in :meth:`KvService.result`.

``kv_rank_body`` is the SPMD body: it paces the stream in *simulated*
time (sleeping until each arrival via a scheduler timer; a front end
about to sleep ships its partial write batches first —
:meth:`KvService.park` — so below saturation a write costs an ack round
trip, not ``max_dwell``), issues requests asynchronously, and drains
with the aggregator's counting quiescence followed by the replication
layer's anti-entropy sweep.
Every field of the returned record is a deterministic function of the
simulation — pinned by ``tests/test_apps_kvservice.py`` and the chaos
suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import repro.upcxx as upcxx
from repro.apps.kvservice.traffic import TrafficModel
from repro.upcxx.replication import ReplicatedStore
from repro.util.metrics import DwellHistogram

_SUM_MASK = (1 << 63) - 1

#: request-count scales; "xl" is the million-request configuration
SCALES: Dict[str, dict] = {
    "tiny": {"ranks": 8, "n_requests": 256},
    "full": {"ranks": 16, "n_requests": 4096},
    "xl": {"ranks": 32, "n_requests": 32768},
}


#: the :meth:`ReplicatedStore.stats` counters a per-rank record carries.
#: ``updates_sent`` counts application updates shipped (the wire carried
#: ``updates_sent - updates_combined`` entries); ``invals_sent <=
#: sharers_registered`` is the owner side of the cache protocol;
#: ``applied_updates`` and ``reads_served`` are what the rank did as a
#: shard owner (its load, not its traffic)
_RECORD_STATS = (
    "batches_sent", "updates_sent", "updates_combined",
    "credit_stalls", "credit_stall_s",
    "cache_hits", "cache_misses", "reads_coalesced", "read_batches",
    "cache_invalidations", "invals_sent", "sharers_registered",
    "applied_updates", "reads_served",
    "replication", "deaths_seen", "failover_reads", "rereplicated_keys",
    "synced_keys", "recovery_s", "factor_restored",
    "acks_forgiven", "updates_dropped",
)


class Overloaded(RuntimeError):
    """Typed admission-control rejection: the service is past its
    configured backlog limit; the client should back off and retry."""


def default_config(scale: str = "tiny") -> dict:
    """Baseline service+traffic configuration for one benchmark scale."""
    cfg = {
        "ppn": 4,
        "rate": 200_000.0,  # offered load per front-end rank (req/s)
        "read_fraction": 0.9,
        "zipf_s": 1.1,
        "n_keys": 1024,
        "burst_prob": 0.02,
        "burst_mult": 4.0,
        "burst_len": 32,
        "batch_size": 64,
        "credits": 8,
        "max_dwell": 40e-6,
        "cache_capacity": 128,
        "aggregate": True,
        "replication": 1,
        "admission_limit": None,
    }
    cfg.update(SCALES[scale])
    return cfg


class KvService:
    """Front-end + shard-owner state of one rank (collective constructor)."""

    def __init__(
        self,
        *,
        batch_size: int = 64,
        credits: Optional[int] = None,
        max_dwell: Optional[float] = None,
        cache_capacity: int = 0,
        replication: int = 1,
        admission_limit: Optional[int] = None,
    ):
        self._rt = upcxx.current_runtime()
        self._repl = ReplicatedStore(
            "replace",
            batch_size=batch_size,
            replication=replication,
            max_dwell=max_dwell,
            credits=credits,
            cache_capacity=cache_capacity,
            combine_at_source=True,  # Zipf keys: duplicates meet at the sender
            on_batch_flushed=self._batch_flushed,
            on_batch_acked=self._batch_acked,
            on_read=self._read_done,
            on_death=self._on_death,
        )
        self._store = self._repl.store
        self._owners = self._repl.map.owners
        self.admission_limit = admission_limit
        n = upcxx.rank_n()
        #: per-destination write records awaiting their batch's flush; a
        #: record is *shared* across its key's owners — the first ack of
        #: any covering batch completes the write, a covering owner's
        #: death decrements its live count (``live == 0`` => lost)
        self._pending_w: List[list] = [[] for _ in range(n)]
        #: flushed-batch seq -> (dest, records) awaiting the ack
        self._inflight: Dict[int, tuple] = {}
        #: an open record (its issue number) -> arrival time / live count;
        #: ints and floats, so an open write adds no object the GC walks
        self._w_t: Dict[int, float] = {}
        self._w_live: Dict[int, int] = {}
        self.read_lat = DwellHistogram()
        self.write_lat = DwellHistogram()
        self.reads_issued = 0
        self.reads_done = 0
        self.writes_issued = 0
        self.writes_done = 0
        self.writes_lost = 0
        self.requests_shed = 0
        self._read_sum = 0

    # ------------------------------------------------------------ operations
    def _admit(self) -> None:
        limit = self.admission_limit
        if limit is None:
            return
        backlog = (self.reads_issued - self.reads_done) + (
            self.writes_issued - self.writes_done - self.writes_lost
        )
        if backlog >= limit:
            self.requests_shed += 1
            self._rt.kv_shed += 1
            raise Overloaded(
                f"kv backlog {backlog} at admission limit {limit}"
            )

    def put(self, key: int, value: int, t_arrival: float) -> None:
        """Issue one write (open loop; completes at the first covering
        batch ack on any owner).  Raises :class:`Overloaded` when shed."""
        self._admit()
        rec = self.writes_issued
        self.writes_issued = rec + 1
        owners = self._owners(key)
        self._w_t[rec] = t_arrival
        self._w_live[rec] = len(owners)
        # record before any update: the first update_to may flush its
        # destination's batch inline
        for o in owners:
            self._pending_w[o].append(rec)
        for o in owners:
            self._store.update_to(o, key, value)

    def get(self, key: int, t_arrival: float) -> None:
        """Issue one read (open loop; cache hits complete inline).
        Raises :class:`Overloaded` when shed."""
        self._admit()
        self.reads_issued += 1
        self._repl.read(key, 0, t_arrival)

    def poll(self) -> None:
        """Pacing hook: honor the aggregator's dwell deadlines."""
        self._store.poll()

    def park(self) -> None:
        """The front end is about to sleep: a partial batch has nothing
        left to wait for, ship it."""
        self._store.flush_ready()

    # ----------------------------------------------------------- completions
    def _batch_flushed(self, dest: int, seq: int, n: int) -> None:
        pend = self._pending_w[dest]
        if pend:
            self._inflight[seq] = (dest, pend)
            self._pending_w[dest] = []

    def _batch_acked(self, dest: int, seq: int, t_now: float) -> None:
        _dest, recs = self._inflight.pop(seq, (dest, ()))
        for rec in recs:
            if rec in self._w_t:
                self.write_lat.add(t_now - self._w_t.pop(rec))
                del self._w_live[rec]
                self.writes_done += 1

    def _read_done(self, t_arrival: float, _key, value) -> None:
        self.reads_done += 1
        if isinstance(value, int):
            self._read_sum = (self._read_sum + value) & _SUM_MASK
        self.read_lat.add(self._rt.now() - t_arrival)

    def _on_death(self, dead: int, t_detect: float) -> None:
        """Replication-layer hook (rank context): settle write records
        that were waiting on the dead rank.  A record still covered by a
        surviving owner completes on that owner's ack; one whose every
        owner died is a lost write."""
        recs = list(self._pending_w[dead])
        self._pending_w[dead] = []
        for seq in [s for s, (d, _r) in self._inflight.items() if d == dead]:
            recs.extend(self._inflight.pop(seq)[1])
        for rec in recs:
            if rec in self._w_t:
                self._w_live[rec] -= 1
                if self._w_live[rec] <= 0:
                    del self._w_t[rec], self._w_live[rec]
                    self.writes_lost += 1

    # ----------------------------------------------------------------- drain
    def drain(self) -> None:
        """Collective: settle all writes, invalidations, acks, and reads,
        then run the drain-time anti-entropy sweep so every replica is
        exact before results are read."""
        self._store.quiesce()
        self._rt.wait_quiet(
            lambda: self.reads_done >= self.reads_issued, "kv::drain-reads"
        )
        self._repl.anti_entropy()
        upcxx.barrier(team=self._store.quiesce_team)

    # ---------------------------------------------------------------- export
    def result(self) -> dict:
        """Deterministic per-rank record (bit-identical for the same seed)."""
        s = self._repl.stats()
        issued = self.reads_issued + self.writes_issued
        served = self.reads_done + self.writes_done
        accepted_total = issued + self.requests_shed
        out = {k: s[k] for k in _RECORD_STATS}
        out.update({
            "reads": self.reads_done,
            "writes": self.writes_done,
            "read_sum": self._read_sum,
            "shard_size": self._store.local_size(),
            "read_lat": self.read_lat.as_dict(),
            "write_lat": self.write_lat.as_dict(),
            # -- availability / admission ----------------------------------
            "requests_issued": issued,
            "requests_served": served,
            "requests_shed": self.requests_shed,
            "shed_fraction": (
                self.requests_shed / accepted_total if accepted_total else 0.0
            ),
            "writes_lost": self.writes_lost,
            "availability": (served / issued) if issued else 1.0,
        })
        # the replication-layer state table telemetry copies at finish
        self._rt.kv_replica = {
            "factor": out["replication"],
            **{k: out[k] for k in ("shard_size", "deaths_seen", "factor_restored", "recovery_s")},
        }
        return out


def _sleep_until(rt, t: float, before_park=None) -> None:
    """Simulated-time sleep: park the rank until the clock reaches ``t``."""
    sched = rt.sched
    rank = rt.rank
    sched.post_at(t, lambda: sched.wake(rank, t), rank)
    rt.wait_quiet(lambda: rt.now() >= t, "kv::pace", before_park)


def kv_rank_body(cfg: dict) -> dict:
    """SPMD body: pace the configured traffic through the service.

    ``cfg`` holds every key of :func:`default_config` (the only source of
    defaults), with any overrides applied.  Returns the rank's
    deterministic result record plus its elapsed simulated serving time
    (``t_serve_s``) — the driver derives achieved throughput from the
    slowest rank's elapsed time.
    """
    aggregate = cfg["aggregate"]
    svc = KvService(
        batch_size=cfg["batch_size"] if aggregate else 1,
        credits=cfg["credits"] if aggregate else None,
        max_dwell=cfg["max_dwell"] if aggregate else None,
        cache_capacity=cfg["cache_capacity"] if aggregate else 0,
        replication=cfg["replication"],
        admission_limit=cfg["admission_limit"],
    )
    rt = upcxx.current_runtime()
    tm = TrafficModel(
        rt.rng.spawn("kv-traffic").py,
        rate=cfg["rate"],
        n_requests=cfg["n_requests"],
        read_fraction=cfg["read_fraction"],
        zipf_s=cfg["zipf_s"],
        n_keys=cfg["n_keys"],
        burst_prob=cfg["burst_prob"],
        burst_mult=cfg["burst_mult"],
        burst_len=cfg["burst_len"],
    )
    upcxx.barrier()
    t_start = upcxx.sim_now()
    now = rt.sched.now
    for dt, op, key, val in tm.requests():
        t_arr = t_start + dt
        if now() < t_arr:
            _sleep_until(rt, t_arr, svc.park)
        try:
            if op == "get":
                svc.get(key, t_arr)
            else:
                svc.put(key, val, t_arr)
        except Overloaded:
            # shed: the client's request is rejected, not queued; the
            # shed counter already recorded it
            pass
        svc.poll()
    # Under a survivable crash plan, every rank holds the drain until the
    # last scheduled detection has fired and its staged death handler has
    # run, so the drain collectives start on the final alive membership
    # everywhere.  The plan is deterministic data — identical on all
    # ranks.
    faults = rt.world.faults
    if faults is not None and faults.survivable and faults.crashes:
        t_settle = max(t + faults.detect_timeout for t in faults.crashes.values())
        if rt.now() < t_settle:
            _sleep_until(rt, t_settle)
        upcxx.progress()
    svc.drain()
    out = svc.result()
    out["t_serve_s"] = upcxx.sim_now() - t_start
    return out
