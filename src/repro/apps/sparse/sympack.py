"""symPACK-style multifrontal Cholesky skeleton (paper §IV-D-4, Fig. 9).

Fig. 9 compares two implementations of the same solver: the original over
UPC++ v0.1 (asyncs + events) and the port to v1.0 (RPCs + futures).  The
computation and communication volume are identical; only the asynchrony
machinery differs.  The paper finds them "nearly identical" (0.7% average
difference, v1.0 up to 7.2% ahead at 256 processes).

This skeleton factorizes the frontal tree bottom-up: for each front its
team (a) waits for all children's extend-add contributions, (b) charges the
dense partial-factorization flops split across the team, and (c) packs and
sends its contribution block to the parent.  The two backends are:

- ``backend="v1"``  — RPC with zero-copy views, promise-counted completion
  (exactly the extend-add of :mod:`repro.apps.sparse.extend_add`);
- ``backend="v01"`` — :func:`repro.upcxx_v01.async_task` per destination
  (no return values, payload copied at both ends, per-op event
  bookkeeping) with an explicitly managed ack :class:`Event`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

import repro.upcxx as upcxx
from repro.apps.sparse.extend_add import (
    EaddPlan,
    _build_instances,
    _charge_pack,
    _EaddState,
    _accum,
)
from repro.upcxx_v01 import Event, async_task


def _factor_front_cost(plan: EaddPlan, pid: int, rt) -> float:
    """Per-rank share of the front's dense partial factorization."""
    f = plan.fronts[pid]
    team_size = len(plan.teams[pid])
    return f.factor_flops() / rt.cpu.flop_rate / team_size


# ------------------------------------------------------------------- v1.0
def sympack_v1_run(plan: EaddPlan) -> float:
    """Factorization sweep over UPC++ v1.0 (futures/RPC); elapsed seconds."""
    rt = upcxx.current_runtime()
    me = rt.rank
    instances = _build_instances(plan, me)
    state = _EaddState(plan, instances)
    state_dobj = upcxx.DistObject(state)
    upcxx.barrier()
    t0 = upcxx.sim_now()

    for nid in sorted(plan.fronts):
        front = plan.fronts[nid]
        if me not in plan.teams[nid]:
            continue
        # (a) wait for children's contributions (extend-add completion)
        if front.children:
            state.promises[nid].finalize().wait()
        # (b) dense partial factorization of the front, split over the team
        upcxx.compute(_factor_front_cost(plan, nid, rt))
        # (c) extend-add my piece of F22 into the parent
        if front.parent == -1:
            continue
        packed = instances[nid].pack(plan.routes[(nid, me)])
        _charge_pack(rt.charge_sw, rt.charge_copy, packed)
        f_conj = upcxx.make_future()
        for dest, (pi, pj, vals) in packed.items():
            fut = upcxx.rpc(dest, _accum, state_dobj, front.parent, pi, pj, upcxx.make_view(vals))
            f_conj = upcxx.when_all(f_conj, fut)
        f_conj.wait()

    upcxx.barrier()
    return upcxx.sim_now() - t0


# ------------------------------------------------------------------- v0.1
class _V01State:
    """Per-rank v0.1 state: instances plus explicitly managed events."""

    def __init__(self, plan: EaddPlan, instances: Dict[int, "object"]):
        self.plan = plan
        self.instances = instances
        # the programmer must size each event with the expected incoming
        # count up front — the lifetime-management burden §V-A describes
        rt = upcxx.current_runtime()
        me = rt.rank
        self.recv_events: Dict[int, Event] = {}
        for pid in plan.parents:
            if me in plan.teams[pid]:
                self.recv_events[pid] = Event(count=plan.expected.get((pid, me), 0))


def _v01_accum(state_dobj: upcxx.DistObject, pid: int, pi, pj, vals) -> None:
    """v0.1 remote body: same accumulation, but the payload arrived fully
    copied (no views) and completion flows through an event."""
    rt = upcxx.current_runtime()
    state: _V01State = state_dobj.value
    values = np.asarray(vals)
    rt.sched.charge(rt.cpu.accumulate_time(len(values)))
    state.instances[pid].accumulate(np.asarray(pi), np.asarray(pj), values)
    state.recv_events[pid].signal(1)


def sympack_v01_run(plan: EaddPlan) -> float:
    """Factorization sweep over the v0.1 emulation; elapsed seconds."""
    rt = upcxx.current_runtime()
    me = rt.rank
    instances = _build_instances(plan, me)
    state = _V01State(plan, instances)
    state_dobj = upcxx.DistObject(state)
    upcxx.barrier()
    t0 = upcxx.sim_now()

    for nid in sorted(plan.fronts):
        front = plan.fronts[nid]
        if me not in plan.teams[nid]:
            continue
        if front.children:
            state.recv_events[nid].wait()
        upcxx.compute(_factor_front_cost(plan, nid, rt))
        if front.parent == -1:
            continue
        packed = instances[nid].pack(plan.routes[(nid, me)])
        _charge_pack(rt.charge_sw, rt.charge_copy, packed)
        ack = Event()
        for dest, (pi, pj, vals) in packed.items():
            # v0.1: no views — the values array ships as a plain copied
            # payload; the ack event is the only completion signal
            async_task(dest, _v01_accum, state_dobj, front.parent, pi, pj, vals, ack=ack)
        ack.wait()

    upcxx.barrier()
    return upcxx.sim_now() - t0


def sympack_run(plan: EaddPlan, backend: str = "v1") -> float:
    """Run the factorization sweep with the chosen backend."""
    if backend == "v1":
        return sympack_v1_run(plan)
    if backend == "v01":
        return sympack_v01_run(plan)
    raise ValueError(f"unknown backend {backend!r}; use 'v1' or 'v01'")
