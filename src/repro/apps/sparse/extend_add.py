"""The extend-add operation, three ways (paper §IV-D and Fig. 8).

All variants move exactly the same numerical data along the same frontal
tree, differing only in communication structure:

- **UPC++ RPC** (the paper's Fig. 7 code): each child-team rank packs its
  contribution-block entries per destination parent rank and issues one
  RPC per *non-empty* destination, shipping values as a zero-copy view;
  a per-front promise, pre-initialized with the expected incoming-RPC
  count, signals completion (``e_add_prom``).
- **MPI Alltoallv**: per parent front, a pairwise-exchange all-to-all over
  the front's whole team — every pair exchanges a message even when empty
  (STRUMPACK's strategy).
- **MPI P2P**: nonblocking ``Isend``/``Irecv`` per non-empty pair with
  wildcard-source receives and waitall (MUMPS's strategy).

The tree is processed bottom-up (postorder); disjoint subtrees proceed
concurrently because their teams are disjoint under proportional mapping.

The :class:`EaddPlan` holds every index the sweeps need — each rank's
layout of each front and each (child front, rank)'s route into its
parent — so a sweep allocates its fronts and only moves data: one gather
per pack, one scatter-add per received message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.upcxx as upcxx
from repro.apps.sparse.frontal import FrontInstance, FrontLayout, Route, positions, to_parent
from repro.apps.sparse.matrices import laplacian_3d_csr
from repro.apps.sparse.ordering import nested_dissection_3d
from repro.apps.sparse.propmap import proportional_mapping
from repro.apps.sparse.symbolic import FrontSymbolic, symbolic_from_dissection
from repro.mpisim import comm_world
from repro.upcxx.future import Promise
from repro.util.units import US

#: software cost of binning one destination buffer during pack
_PACK_PER_DEST = 0.5 * US
#: wire bytes per packed entry: float64 value + two int64 indices
_ENTRY_BYTES = 24
#: MUMPS-style send-buffer discipline for the MPI P2P variant: one
#: in-flight synchronous send at a time (one CB send buffer), as in
#: MUMPS's bounded-buffer contribution-block communication
_P2P_POOL = 1
#: receive-side per-message cost of the P2P variant: probe + dynamic
#: buffer allocation + bookkeeping (the Alltoallv path preallocates from
#: counts and needs none of this)
_P2P_RECV_EXTRA = 0.5 * US


@dataclass
class EaddPlan:
    """Precomputed symbolic plan shared by all variants (read-only).

    Built once outside the simulation; everything in it is static symbolic
    information each rank of a real run would compute redundantly during
    setup (which the paper does not time).  It owns all of extend-add's
    index work: the layouts and routes below are built here, once, and
    every sweep of every variant — and the 2-D Cholesky of
    :mod:`repro.apps.sparse.numeric2d`, over its padded fronts — reads
    them, so a sweep only moves data.
    """

    fronts: Dict[int, FrontSymbolic]
    teams: Dict[int, List[int]]
    #: parent fronts in postorder (every non-leaf node id)
    parents: List[int]
    #: expected incoming message count per (parent front, world rank)
    expected: Dict[Tuple[int, int], int]
    #: each rank's layout of each front it belongs to, by (front, rank)
    layouts: Dict[Tuple[int, int], FrontLayout]
    #: each child-team rank's route into the parent, by (child front, rank)
    routes: Dict[Tuple[int, int], Route]
    n_procs: int
    block: int = 24
    #: total packed entries over the whole tree (for reporting)
    total_entries: int = 0

    def my_front_ids(self, rank: int) -> List[int]:
        return [nid for nid, team in self.teams.items() if rank in team]


def build_eadd_plan(
    nx: int,
    ny: int,
    nz: int,
    n_procs: int,
    leaf_size: int = 64,
    block: int = 24,
) -> EaddPlan:
    """Dissect the grid, map teams, and plan extend-add over them."""
    a = laplacian_3d_csr(nx, ny, nz)
    root, _perm = nested_dissection_3d(nx, ny, nz, leaf_size=leaf_size)
    fronts = symbolic_from_dissection(a, root)
    return plan_extend_add(fronts, proportional_mapping(fronts, n_procs), n_procs, block)


def plan_extend_add(
    fronts: Dict[int, FrontSymbolic],
    teams: Dict[int, List[int]],
    n_procs: int,
    block: int = 24,
) -> EaddPlan:
    """Every layout, route and expected message count of extend-add over
    ``fronts`` mapped onto ``teams``, each front block-cyclic in
    ``block``."""
    parents = [nid for nid in sorted(fronts) if fronts[nid].children]
    layouts = {
        (nid, r): FrontLayout(fronts[nid], teams[nid], r, block)
        for nid in sorted(fronts)
        for r in teams[nid]
    }

    routes: Dict[Tuple[int, int], Route] = {}
    expected: Dict[Tuple[int, int], int] = {}
    total_entries = 0
    for pid in parents:
        parent = fronts[pid]
        for r in teams[pid]:
            expected[(pid, r)] = 0
        for cid in parent.children:
            pos = to_parent(fronts[cid], parent)
            for s in teams[cid]:
                route = routes[(cid, s)] = layouts[(cid, s)].route(pos, teams[pid], block)
                counts = route.counts()
                total_entries += sum(counts.values())
                for dest_world in counts:
                    expected[(pid, dest_world)] += 1
    return EaddPlan(
        fronts=fronts,
        teams=teams,
        parents=parents,
        expected=expected,
        layouts=layouts,
        routes=routes,
        n_procs=n_procs,
        block=block,
        total_entries=total_entries,
    )


def _build_instances(plan: EaddPlan, me: int) -> Dict[int, FrontInstance]:
    """Materialize this rank's share of every front it participates in.

    Leaves carry a unit contribution block; interior fronts start zero
    (they will pack whatever their children deposited — identical data
    volume in every variant).
    """
    instances: Dict[int, FrontInstance] = {}
    for nid in plan.my_front_ids(me):
        inst = FrontInstance(plan.layouts[(nid, me)])
        if not plan.fronts[nid].children:
            inst.fill()
        instances[nid] = inst
    return instances


def _charge_pack(rt_charge_sw, rt_charge_copy, packed: dict) -> None:
    """CPU cost of the pack step (same in every variant)."""
    total = sum(len(v) for (_pi, _pj, v) in packed.values())
    rt_charge_copy(total * _ENTRY_BYTES)
    rt_charge_sw(_PACK_PER_DEST * max(1, len(packed)))


# ---------------------------------------------------------------- UPC++ RPC
class _EaddState:
    """Per-rank UPC++ extend-add state reachable from incoming RPCs."""

    def __init__(self, plan: EaddPlan, instances: Dict[int, FrontInstance]):
        self.plan = plan
        self.instances = instances
        self.promises: Dict[int, Promise] = {}
        rt = upcxx.current_runtime()
        me = rt.rank
        for pid in plan.parents:
            if me in plan.teams[pid]:
                p = Promise()
                p.require_anonymous(plan.expected.get((pid, me), 0))
                self.promises[pid] = p


def _accum(state_dobj: upcxx.DistObject, pid: int, pi: np.ndarray, pj: np.ndarray, vals) -> None:
    """RPC body: the paper's ``accum`` — accumulate a view of entries into
    the local piece of the parent front, then fulfill e_add_prom."""
    rt = upcxx.current_runtime()
    state: _EaddState = state_dobj.value
    values = vals.to_numpy() if hasattr(vals, "to_numpy") else np.asarray(vals)
    rt.sched.charge(rt.cpu.accumulate_time(len(values)))
    state.instances[pid].accumulate(np.asarray(pi), np.asarray(pj), values)
    state.promises[pid].fulfill_anonymous(1)


def upcxx_eadd_run(plan: EaddPlan, collect: Optional[dict] = None) -> float:
    """One full bottom-up extend-add sweep with UPC++ RPC; returns the
    elapsed simulated seconds on this rank (barrier-to-barrier).

    ``collect[rank] = instances`` is populated when a dict is passed
    (used by correctness tests to reassemble the fronts)."""
    rt = upcxx.current_runtime()
    me = rt.rank
    instances = _build_instances(plan, me)
    if collect is not None:
        collect[me] = instances
    state = _EaddState(plan, instances)
    state_dobj = upcxx.DistObject(state)
    upcxx.barrier()
    t0 = upcxx.sim_now()

    for pid in plan.parents:
        parent = plan.fronts[pid]
        in_parent_team = me in plan.teams[pid]
        f_conj = upcxx.make_future()  # conjoined acks, as in the paper
        for cid in parent.children:
            if me not in plan.teams[cid]:
                continue
            packed = instances[cid].pack(plan.routes[(cid, me)])
            _charge_pack(rt.charge_sw, rt.charge_copy, packed)
            my_idx = plan.teams[pid].index(me) if in_parent_team else 0
            n_team = len(plan.teams[pid])
            # round-robin starting after me, as in the paper's Fig. 7
            for lp in range(n_team):
                dest = plan.teams[pid][(my_idx + 1 + lp) % n_team]
                triple = packed.get(dest)
                if triple is None:
                    continue
                pi, pj, vals = triple
                fut = upcxx.rpc(dest, _accum, state_dobj, pid, pi, pj, upcxx.make_view(vals))
                f_conj = upcxx.when_all(f_conj, fut)
        if in_parent_team:
            upcxx.when_all(f_conj, state.promises[pid].finalize()).wait()
        else:
            f_conj.wait()

    upcxx.barrier()
    return upcxx.sim_now() - t0


# --------------------------------------------------------------------- MPI
def _mpi_pack_sends(plan, instances, pid, me, rt):
    """Shared MPI-side pack: list of (dest world rank, payload) per child.

    One entry per (child, destination) pair — the same message granularity
    as the UPC++ variant, so ``plan.expected`` counts apply to both.
    """
    parent = plan.fronts[pid]
    sends: List[Tuple[int, tuple]] = []
    for cid in parent.children:
        if me not in plan.teams[cid]:
            continue
        packed = instances[cid].pack(plan.routes[(cid, me)])
        _charge_pack(rt.charge_sw, rt.charge_copy, packed)
        for dest, triple in packed.items():
            sends.append((dest, triple))
    return sends


def _mpi_accumulate(instances, pid, payload, rt, from_self: bool = False) -> None:
    pi, pj, vals = payload
    if from_self:
        # a self-delivered buffer still moves through the MPI layer's
        # buffers: one copy in, one copy out (keeps the 1-process point
        # comparable across variants)
        rt.charge_copy(2 * len(vals) * _ENTRY_BYTES)
    rt.sched.charge(rt.cpu.accumulate_time(len(vals)))
    instances[pid].accumulate(np.asarray(pi), np.asarray(pj), np.asarray(vals))


def mpi_eadd_run(plan: EaddPlan, variant: str = "alltoallv", collect: Optional[dict] = None) -> float:
    """One full extend-add sweep with an MPI variant ('alltoallv'|'p2p')."""
    if variant not in ("alltoallv", "p2p"):
        raise ValueError(f"unknown variant {variant!r}")
    comm = comm_world()
    rt = comm.rt
    me = rt.rank
    instances = _build_instances(plan, me)
    if collect is not None:
        collect[me] = instances
    # per-front subcommunicators (setup, untimed; STRUMPACK builds these
    # from the proportional mapping the same way)
    front_comms = {
        pid: comm.sub([comm.members.index(w) for w in plan.teams[pid]])
        for pid in plan.parents
        if me in plan.teams[pid]
    }
    comm.barrier()
    t0 = rt.sched.now()

    for pid in plan.parents:
        if me not in plan.teams[pid]:
            continue
        team = plan.teams[pid]
        sends = _mpi_pack_sends(plan, instances, pid, me, rt)

        if variant == "alltoallv":
            fcomm = front_comms[pid]
            # one buffer per pair: merge this rank's bins per destination
            merged: Dict[int, list] = {}
            for dest, triple in sends:
                merged.setdefault(dest, []).append(triple)
            send_objs = [
                tuple(np.concatenate(parts) for parts in zip(*merged[w]))
                if w in merged
                else None
                for w in team
            ]
            received = fcomm.alltoallv(send_objs)
            for i, payload in enumerate(received):
                if payload is not None:
                    _mpi_accumulate(instances, pid, payload, rt, from_self=(team[i] == me))
        else:  # p2p: one message per (child, destination), like UPC++.
            # MUMPS-style flow control: synchronous-mode sends (Issend) to
            # bound unexpected-buffer growth, drawn from a small fixed pool
            # of send buffers — at most _P2P_POOL sends in flight, so the
            # sender repeatedly stalls on receiver matching progress.
            n_self = sum(1 for dest, _p in sends if dest == me)
            n_remote_in = plan.expected.get((pid, me), 0) - n_self
            # prepost every receive (so arriving messages always match and
            # Issend acks can flow — no cyclic stall)
            rreqs = [comm.irecv(tag=pid) for _ in range(n_remote_in)]
            sreqs: list = []
            for dest, payload in sends:
                if dest == me:
                    _mpi_accumulate(instances, pid, payload, rt, from_self=True)
                    continue
                while sum(1 for s in sreqs if not s.done) >= _P2P_POOL:
                    rt.wait_all([next(s for s in sreqs if not s.done)])
                sreqs.append(comm.issend(payload, comm.members.index(dest), tag=pid))
            rt.wait_all(sreqs + rreqs)
            rt.charge_sw(_P2P_RECV_EXTRA * len(rreqs))
            for r in rreqs:
                _mpi_accumulate(instances, pid, r.value, rt)

    comm.barrier()
    return rt.sched.now() - t0


# ------------------------------------------------------------- serial check
def serial_eadd_reference(plan: EaddPlan) -> Dict[int, np.ndarray]:
    """Dense single-process reference: the assembled parent fronts.

    Used by tests to verify every distributed variant lands every entry in
    the right place with the right multiplicity.
    """
    dense: Dict[int, np.ndarray] = {}
    for nid in sorted(plan.fronts):
        f = plan.fronts[nid]
        dense[nid] = np.zeros((f.front_size, f.front_size))
        if not f.children:
            nc = f.n_cols
            dense[nid][nc:, nc:] = 1.0
    for pid in plan.parents:
        parent = plan.fronts[pid]
        for cid in parent.children:
            child = plan.fronts[cid]
            nc = child.n_cols
            src = dense[cid][nc:, nc:]
            pos = positions(parent.row_indices, child.border)
            dense[pid][np.ix_(pos, pos)] += src
    return dense
