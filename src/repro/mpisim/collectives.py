"""MPI collectives built from point-to-point (the MPICH-style algorithms).

- ``barrier``   — dissemination, ⌈log₂ P⌉ rounds;
- ``bcast``     — binomial tree;
- ``allgather`` — ring, P-1 steps;
- ``alltoallv`` — pairwise exchange, P-1 steps of sendrecv.  Every pair
  exchanges a message **even when empty** — the collective cost that the
  paper's extend-add benchmark exposes at scale (Fig. 8, MPI Alltoallv).

Collective traffic uses a reserved tag space keyed by a per-communicator
epoch so concurrent user messages can never match it.
"""

from __future__ import annotations

from typing import Sequence

#: base of the reserved collective tag space
_COLL_TAG = 1 << 20

def _epoch(comm) -> int:
    e = getattr(comm, "_coll_epoch", 0)
    comm._coll_epoch = e + 1
    return e


def _tag(epoch: int, step: int = 0) -> int:
    if not 0 <= step < (1 << 16):
        raise ValueError(f"collective step {step} out of tag space")
    return _COLL_TAG + (epoch << 16) + step


def barrier(comm) -> None:
    """Dissemination barrier."""
    rt = comm.rt
    rt.charge_sw(rt.costs.coll_sw)
    n = comm.size
    if n == 1:
        return
    me = comm.rank
    e = _epoch(comm)
    rounds = (n - 1).bit_length()
    for k in range(rounds):
        dst = (me + (1 << k)) % n
        src = (me - (1 << k)) % n
        sreq = comm.isend(None, dst, tag=_tag(e, k))
        rreq = comm.irecv(src, tag=_tag(e, k))
        rt.wait_all([sreq, rreq])


def _bcast_children(vrank: int, n: int) -> list:
    mask = 1
    while mask < n and not (vrank & mask):
        mask <<= 1
    mask >>= 1
    out = []
    while mask > 0:
        if vrank + mask < n:
            out.append(vrank + mask)
        mask >>= 1
    return out


def _bcast_parent(vrank: int) -> int:
    return vrank & (vrank - 1)


def bcast(comm, obj, root: int = 0):
    """Binomial-tree broadcast; returns the object on every rank."""
    rt = comm.rt
    rt.charge_sw(rt.costs.coll_sw)
    n = comm.size
    if n == 1:
        return obj
    me = comm.rank
    e = _epoch(comm)
    v = (me - root) % n
    if v != 0:
        parent = (_bcast_parent(v) + root) % n
        obj = comm.recv(parent, tag=_tag(e))
    reqs = []
    for child_v in _bcast_children(v, n):
        child = (child_v + root) % n
        reqs.append(comm.isend(obj, child, tag=_tag(e)))
    rt.wait_all(reqs)
    return obj


def allgather(comm, value) -> list:
    """Ring allgather: P-1 steps, each forwarding the growing window."""
    rt = comm.rt
    rt.charge_sw(rt.costs.coll_sw)
    n = comm.size
    me = comm.rank
    out = [None] * n
    out[me] = value
    if n == 1:
        return out
    e = _epoch(comm)
    right = (me + 1) % n
    left = (me - 1) % n
    carry = (me, value)
    for step in range(n - 1):
        sreq = comm.isend(carry, right, tag=_tag(e, step))
        rreq = comm.irecv(left, tag=_tag(e, step))
        rt.wait_all([sreq, rreq])
        carry = rreq.value
        out[carry[0]] = carry[1]
    return out


def alltoallv(comm, send_objs: Sequence) -> list:
    """Alltoallv, MPICH-style for sparse/moderate sizes: nonblocking
    isend/irecv to every peer, then one waitall.

    Counts and displacements are part of the interface, so receives match
    by exact (source, tag) — no wildcard scans — but **every pair**
    exchanges a message even when the payload is empty, and each call pays
    Θ(P) setup: the collective couples the whole communicator, which is
    what loses to sparse one-sided RPC at scale (paper Fig. 8).
    """
    rt = comm.rt
    n = comm.size
    me = comm.rank
    if len(send_objs) != n:
        raise ValueError(f"alltoallv needs {n} send objects, got {len(send_objs)}")
    rt.charge_sw(rt.costs.coll_sw + rt.costs.alltoallv_per_peer * n)
    out = [None] * n
    out[me] = send_objs[me]  # self-exchange is a local copy
    e = _epoch(comm)
    reqs = []
    recvs = []
    for step in range(1, n):
        dst = (me + step) % n
        src = (me - step) % n
        reqs.append(comm.isend(send_objs[dst], dst, tag=_tag(e, step)))
        rreq = comm.irecv(src, tag=_tag(e, step))
        reqs.append(rreq)
        recvs.append((src, rreq))
    rt.wait_all(reqs)
    for src, rreq in recvs:
        out[src] = rreq.value
    return out
