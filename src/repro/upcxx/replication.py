"""Rank-level replication and online recovery for aggregated stores.

The paper's DHT/KV story ends where most PGAS runtimes end: one crash
and the whole run unwinds with a :class:`RankDeadError`.  This module
adds the missing availability layer on top of :class:`AggStore` and the
survivable heartbeat machinery (``World.on_rank_dead``):

- :class:`ReplicaMap` — deterministic primary-replica placement.  A
  key's *home* is its routed owner (:func:`default_route`);
  its owner set is the first ``factor`` alive ranks walking the ring
  from the home.  Because a death only ever shifts later candidates
  earlier, every *surviving* original owner stays in the owner set —
  the invariant the recovery proof below leans on.
- :class:`ReplicatedStore` — a veneer over one :class:`AggStore` that
  fans each update out to every owner (riding the store's existing
  batching, credits, and quiescence), routes reads to the primary, and
  reacts to a detected death in four deterministic steps:

  1. **exclude** the dead peer from the store (forgive its in-flight
     acks, restore credits, drop buffered traffic, purge the read
     cache, re-point quiescence at the alive subteam);
  2. **failover** every outstanding read that targeted the dead rank to
     the key's new primary, by its id (first completion wins — a late
     reply from the dead rank is harmless);
  3. run the **service hook** (``on_death``) so the app can settle its
     own write accounting;
  4. **re-replicate**: ship the keys the dead rank co-owned to the
     recruit ranks that joined each owner set, restoring the factor
     online (install-if-absent, so a recruit's fresher post-detection
     state is never clobbered).

- :meth:`ReplicatedStore.anti_entropy` — a drain-time sweep (after
  :meth:`AggStore.quiesce`) where the first surviving *original* owner
  of each key replace-syncs the recruits.  Correctness: a surviving
  original owner received every update from every surviving writer
  (it is in both the pre- and post-detection owner sets, and delivery
  between alive ranks is reliable), so after quiescence its value is
  the exact combine over all surviving writers' updates; copying it
  onto the recruits makes every replica exact.

An open read is a *read record*: an int id keying four plain dicts
(key, default, current holder, the caller's token).  The id itself is
the waiter on the store's shared fill, so an open read holds no closure
or future, and completion calls the ``on_read(token, key, value)`` hook
given at construction.  Each completion is charged ``then_dispatch``
once here and once by the store per filled waiter: the two
continuations the modelled application chains per read.

With ``factor == 1`` the veneer degenerates bit-identically to the bare
store (same buffers, same flush order, same charges), so turning
replication off costs nothing — the property the chaos-determinism
tests pin.  The design assumes at most ``factor - 1`` failures between
recoveries; past that, a key can lose all its copies (reads then serve
the default, counted by the service as lost writes).

Placement is in world ranks: the store spans the world team and holds
its shard itself (``AggStore.data``), which the recovery scan reads.  Only
the drain collectives run on the alive subteam, which
:meth:`AggStore.exclude_dead` builds.

All recovery work happens in rank context: the death listener runs in
network context and only *stages* the handler onto the runtime's
completion queue (as ``RmaOp.remote_cx`` does), so every
downstream effect carries a deterministic causal stamp.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Callable, Dict, List, Optional, Set

from repro.upcxx.aggregator import AggStore, _as_list, default_route
from repro.upcxx.collectives import barrier
from repro.upcxx.dist_object import DistObject
from repro.upcxx.rpc import rpc
from repro.upcxx.runtime import CompQItem, current_runtime


# ------------------------------------------------------------- rpc bodies
def _repl_write(dobj: DistObject, keys, vals, overwrite: bool) -> int:
    """Write shipped keys into a recruit's shard; returns the count written."""
    rt = current_runtime()
    klist = _as_list(keys)
    vlist = _as_list(vals)
    rt.charge_sw(rt.cpu.map_insert * len(klist))
    data = dobj.value.data
    written = 0
    for k, v in zip(klist, vlist):
        if overwrite or k not in data:
            data[k] = v
            written += 1
    return written


def _repl_install(dobj: DistObject, keys, vals) -> int:
    """RPC body at a recruit: install shipped keys *if absent*.

    Stage-1 recovery runs while the service is still serving, so a
    recruit may already hold a fresher post-detection value for a key;
    install-if-absent never clobbers it.  The drain-time
    :func:`_repl_sync` sweep makes the value exact either way.
    """
    return _repl_write(dobj, keys, vals, False)


def _repl_sync(dobj: DistObject, keys, vals) -> int:
    """RPC body at a recruit: replace-sync shipped keys (drain time).

    Runs after global quiescence, so the shipped values are the exact
    combine over every surviving writer's updates.
    """
    return _repl_write(dobj, keys, vals, True)


# ------------------------------------------------------------ placement
class ReplicaMap:
    """Deterministic successor-ring replica placement.

    ``owners(key)`` is the first ``factor`` *alive* ranks walking the
    ring from the key's routed home.  Pure rank-local arithmetic over
    the dead set — every rank computes identical owner sets without
    communication.  The map only reads ``dead``: in a
    :class:`ReplicatedStore` it is the store's own set
    (``AggStore.dead_peers``), which :meth:`AggStore.exclude_dead` fills
    at detection.  An int key's home is routed once and memoized: the
    route ignores deaths, so the memo never goes stale.
    """

    def __init__(self, n_ranks: int, factor: int, dead: Set[int]):
        if factor < 1:
            raise ValueError(f"replication factor must be >= 1, got {factor}")
        self.n = n_ranks
        self.factor = min(factor, n_ranks)
        #: ranks detected dead (read, never written, here)
        self.dead = dead
        self._homes: Dict[int, int] = {}

    def home(self, key) -> int:
        """The key's routed home rank (ignores deaths)."""
        if type(key) is not int:  # 1.0 == 1, but the two route apart
            return default_route(key, self.n)
        home = self._homes.get(key)
        if home is None:
            home = self._homes[key] = default_route(key, self.n)
        return home

    def owners(self, key, dead: Optional[AbstractSet[int]] = None) -> List[int]:
        """Ring-ordered owner set of ``key`` against a dead set
        (default: the current one; the caller builds it once, not per
        key).  May be shorter than ``factor`` when fewer ranks survive."""
        home = self.home(key)
        if dead is None and self.factor == 1 and not self.dead:
            return [home]
        excluded = self.dead if dead is None else dead
        out: List[int] = []
        for i in range(self.n):
            r = (home + i) % self.n
            if r in excluded:
                continue
            out.append(r)
            if len(out) == self.factor:
                break
        return out

    def primary(self, key) -> int:
        """First alive owner — the read target."""
        return self.owners(key)[0]


# ------------------------------------------------------------- the store
class ReplicatedStore:
    """A replication veneer over one :class:`AggStore`.

    Constructor is collective (it builds the underlying store's
    DistObject).  ``replication`` sets the target copy count,
    ``on_read`` is the read completion hook ``(token, key, value)`` and
    ``on_death`` is the service hook ``(dead_rank, t_detect)`` run
    in rank context after read failover but before re-replication ships;
    every other argument goes to the :class:`AggStore`, which callers
    reach as ``.store`` for pacing, flushing and queries.
    """

    def __init__(
        self,
        *store_args,
        replication: int = 1,
        on_read: Optional[Callable[[Any, Any, Any], None]] = None,
        on_death: Optional[Callable[[int, float], None]] = None,
        **store_kw,
    ):
        rt = current_runtime()
        self._rt = rt
        self.store = AggStore(*store_args, on_read=self._read_landed, **store_kw)
        self.map = ReplicaMap(rt.world.n_ranks, replication, self.store.dead_peers)
        self._on_read = on_read
        self._on_death_cb = on_death
        # -- open read records, by id (insertion-ordered: failover scans
        #    ``_read_dest`` deterministically) --------------------------------
        self._read_key: Dict[int, Any] = {}
        self._read_default: Dict[int, Any] = {}
        self._read_dest: Dict[int, int] = {}
        self._read_token: Dict[int, Any] = {}
        self._read_seq = 0
        # -- recovery accounting --------------------------------------------
        self.failover_reads = 0
        self.rereplicated_keys = 0
        self.synced_keys = 0
        #: simulated seconds from detection until this rank's stage-1
        #: ships were all acked (0.0 when it had nothing to ship)
        self.recovery_s = 0.0
        self.factor_restored = True
        #: unacked stage-1 ships per recruit; a recruit's death forgives
        #: its count, since that ack will never come
        self._pending_ships: Dict[int, int] = {}
        # the listener fires only under survivable fault plans; it stages
        # rank-context work, never touching state from network context
        rt.world.on_rank_dead(self._on_dead_listener)

    @property
    def deaths_seen(self) -> int:
        """Deaths this rank has handled: the size of the shared dead set."""
        return len(self.map.dead)

    # ------------------------------------------------------------ updates
    def update(self, key, value) -> None:
        """Fan one update out to every owner (batched per destination)."""
        for o in self.map.owners(key):
            self.store.update_to(o, key, value)

    # -------------------------------------------------------------- reads
    def read(self, key, default=None, token=None) -> None:
        """Read ``key`` from its primary; ``on_read(token, key, value)``
        on completion (cache hits complete inline).

        The read is a record until it completes: its id keys the key,
        ``default``, current holder and ``token``, so a detected death
        can retarget it to a surviving replica instead of losing it.
        """
        self._read_seq = rid = self._read_seq + 1
        self._read_key[rid] = key
        self._read_default[rid] = default
        self._read_token[rid] = token
        self._issue(rid)

    def _issue(self, rid: int) -> None:
        key = self._read_key[rid]
        dest = self._read_dest[rid] = self.map.primary(key)
        self.store.read_into(dest, key, rid)

    def _read_landed(self, rid: int, found: tuple) -> None:
        """Store hook: read ``rid``'s holder answered ``found``.  Charged
        as the read's continuation whether or not it is still open: a
        late reply from a since-dead primary and its failover re-issue
        may both land, and the first completion wins."""
        rt = self._rt
        rt.sched.charge(rt._c_then_dispatch)
        if self._read_dest.pop(rid, None) is None:
            return
        key = self._read_key.pop(rid)
        default = self._read_default.pop(rid)
        token = self._read_token.pop(rid)
        if self._on_read is not None:
            self._on_read(token, key, found[0] if found else default)

    def reads_outstanding(self) -> int:
        return len(self._read_dest)

    # ----------------------------------------------------- death handling
    def _on_dead_listener(self, dead: int, err, t_detect: float) -> None:
        """Network context: stage the death handler into rank context."""
        rt = self._rt
        if dead == rt.rank or rt._crash_at is not None:
            return
        item = CompQItem(
            rt._c_rpc_dispatch,
            lambda: self._handle_death(dead, t_detect),
            "rank_death",
        )
        rt.gasnet_completed(item, t_detect)

    def _handle_death(self, dead: int, t_detect: float) -> None:
        """Rank context: exclusion, read failover, service hook, stage-1
        re-replication — in that order, identically on every rank."""
        rt = self._rt
        t0 = rt.now()
        dead_before = set(self.map.dead)
        self.store.exclude_dead(dead)
        # a ship to a recruit that died before acking is forgiven; its
        # keys go to the next recruit in the re-replication below
        self._pending_ships.pop(dead, None)
        # retarget outstanding reads aimed at the dead rank
        for rid in [r for r, d in self._read_dest.items() if d == dead]:
            if rid in self._read_dest:
                self.failover_reads += 1
                rt.kv_failover_reads += 1
                self._issue(rid)
        if self._on_death_cb is not None:
            self._on_death_cb(dead, t_detect)
        self._rereplicate(dead_before, t_detect)
        rt.span(t0, "death_exclude", "repl")

    def _ship_plan(self, dead_before) -> dict:
        """The recovery scan: ``recruit -> (keys, values)`` this rank ships.

        A key's owner set against ``dead_before`` lost a member; its first
        surviving member in ring order ships (every rank computes the same
        election without communication) to the current owners that were
        not in that set.  Charged one ``map_lookup`` per scanned key: the
        scan is real work and must show up on the simulated clock.
        """
        rt = self._rt
        data = self.store.data
        dead = self.map.dead
        ship: dict = {}
        for k, v in data.items():
            old = self.map.owners(k, dead=dead_before)
            survivors = [r for r in old if r not in dead]
            if not survivors or survivors[0] != rt.rank:
                continue
            for rec in self.map.owners(k):
                if rec not in old:
                    ks, vs = ship.setdefault(rec, ([], []))
                    ks.append(k)
                    vs.append(v)
        rt.charge_sw(rt.cpu.map_lookup * max(1, len(data)))
        return ship

    def _rereplicate(self, dead_before: set, t_detect: float) -> None:
        """Stage 1: ship each co-owned key slice to its recruit ranks.

        Ships are acked RPCs; when the last ack lands, ``recovery_s``
        records the detection-to-restored interval.
        """
        rt = self._rt
        ship = self._ship_plan(dead_before)
        if not ship:
            return
        self.factor_restored = False
        pending = self._pending_ships
        for rec in sorted(ship):
            ks, vs = ship[rec]
            self.rereplicated_keys += len(ks)
            rt.kv_rereplicated += len(ks)
            pending[rec] = pending.get(rec, 0) + 1
            t0 = rt.now()
            fut = rpc(
                rec, _repl_install, self.store._dobj,
                AggStore._pack(ks), AggStore._pack(vs),
            )
            fut.then(lambda _v, t0=t0, rec=rec, n=len(ks): self._ship_done(t0, rec, n, t_detect))

    def _ship_done(self, t0: float, rec: int, n: int, t_detect: float) -> None:
        rt = self._rt
        rt.span(t0, "rereplicate", "repl", n)
        pending = self._pending_ships
        if rec not in pending:  # a late ack from a recruit already forgiven
            return
        pending[rec] -= 1
        if not pending[rec]:
            del pending[rec]
        if not pending:
            self.recovery_s = max(self.recovery_s, rt.now() - t_detect)
            self.factor_restored = True

    # ---------------------------------------------------------- drain side
    def anti_entropy(self) -> None:
        """Drain-time replace-sync (collective over the alive team).

        Call after :meth:`AggStore.quiesce` and after all reads have
        completed.  For every local key whose original owner set lost a
        member, the first surviving *original* owner — whose value is
        now the exact combine over all surviving writers — replace-syncs
        the recruits.  Symmetric no-op when nothing died.
        """
        rt = self._rt
        if not self.map.dead:
            return
        t0 = rt.now()
        ship = self._ship_plan(frozenset())
        pending = [0]

        def _acked(_v, pending=pending):
            pending[0] -= 1
            return _v

        for rec in sorted(ship):
            ks, vs = ship[rec]
            self.synced_keys += len(ks)
            pending[0] += 1
            rpc(
                rec, _repl_sync, self.store._dobj,
                AggStore._pack(ks), AggStore._pack(vs),
            ).then(_acked)
        rt.wait_quiet(lambda: pending[0] == 0, "repl::anti-entropy")
        if ship:
            rt.span(t0, "anti_entropy", "repl", sum(len(ks) for ks, _ in ship.values()))
        barrier(team=self.store.quiesce_team)

    # ------------------------------------------------------------- queries
    def stats(self) -> dict:
        out = self.store.stats()
        out.update(
            replication=self.map.factor,
            deaths_seen=self.deaths_seen,
            failover_reads=self.failover_reads,
            rereplicated_keys=self.rereplicated_keys,
            synced_keys=self.synced_keys,
            recovery_s=self.recovery_s,
            factor_restored=self.factor_restored,
        )
        return out
