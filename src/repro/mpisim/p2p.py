"""Two-sided point-to-point protocol: eager and rendezvous.

Below ``rndv_threshold`` bytes a message travels **eager**: the sender
copies it into MPI buffering, ships it, and the receiver copies it out on
match — one traversal, but two CPU copies and possible unexpected-queue
residency.  At/above the threshold the message goes **rendezvous**: an RTS
control message, a CTS once the receive is matched, then a zero-copy RDMA
transfer — no copies, but a full handshake whose progress requires *both*
sides to be attentive.  These are exactly the semantics whose coupling the
paper contrasts with one-sided RPC injection.
"""

from __future__ import annotations

from typing import Optional

from repro.gasnet.network import PATH_BTE, PATH_FMA
from repro.mpisim.request import Request
from repro.upcxx import serialization

#: wire envelope bytes for MPI headers
_ENVELOPE = 48


def _match(req: Request, src: int, tag: int) -> bool:
    return (req.src == -1 or req.src == src) and (req.tag == -1 or req.tag == tag)


def _path(rt, nbytes: int) -> str:
    return PATH_FMA if nbytes < rt.costs.bte_threshold else PATH_BTE


# ------------------------------------------------------------------- sending
def isend(rt, obj, dest_world: int, tag: int) -> Request:
    """Nonblocking send to a world rank."""
    rt.n_sends += 1
    raw = serialization.pack(obj)
    nbytes = len(raw)
    req = Request(rt, "isend", src=dest_world, tag=tag)
    req.nbytes = nbytes
    rt.charge_sw(rt.costs.send_inject)

    if nbytes < rt.costs.rndv_threshold:
        # eager: copy into MPI buffering, one-way transfer
        rt.charge_copy(nbytes)
        rt.conduit.am_send(
            rt.rank,
            dest_world,
            "mpi.eager",
            {"raw": raw, "tag": tag},
            nbytes=nbytes + _ENVELOPE,
            path=_path(rt, nbytes),
        )
        req.complete()  # buffer is reusable immediately
        return req

    # rendezvous: RTS now; data moves when the CTS returns
    token = rt.next_token()
    rt.charge_sw(rt.costs.rndv_sw)
    rt.rndv_pending[token] = {"raw": raw, "dest": dest_world, "tag": tag, "req": req}
    rt.conduit.am_send(
        rt.rank,
        dest_world,
        "mpi.rts",
        {"tag": tag, "token": token, "nbytes": nbytes},
        nbytes=_ENVELOPE,
    )
    return req


def issend(rt, obj, dest_world: int, tag: int) -> Request:
    """Nonblocking *synchronous* send (``MPI_Issend``): the request
    completes only once the receiver has **matched** the message.

    Production solvers (notably MUMPS) use Issend for contribution-block
    traffic to bound unexpected-buffer growth; the cost is that every send
    couples the sender's completion to the receiver's matching progress —
    the behavior the paper's Fig. 8 "MPI P2P" variant exhibits at scale.
    """
    raw = serialization.pack(obj)
    nbytes = len(raw)
    if nbytes >= rt.costs.rndv_threshold:
        # rendezvous is already synchronous (completion at CTS)
        return isend(rt, obj, dest_world, tag)
    rt.n_sends += 1
    req = Request(rt, "issend", src=dest_world, tag=tag)
    req.nbytes = nbytes
    rt.charge_sw(rt.costs.send_inject)
    rt.charge_copy(nbytes)
    token = rt.next_token()
    rt.rndv_pending[token] = {"req": req}  # awaiting the match ack
    rt.conduit.am_send(
        rt.rank,
        dest_world,
        "mpi.eager",
        {"raw": raw, "tag": tag, "sync_token": token},
        nbytes=nbytes + _ENVELOPE,
        path=_path(rt, nbytes),
    )
    return req


def irecv(rt, src_world: int, tag: int) -> Request:
    """Nonblocking receive (wildcards: src=-1, tag=-1).

    Matching cost model follows real MPI implementations: fully-specified
    (source, tag) receives resolve through hashed buckets (O(1) charge),
    while wildcard receives must scan the unexpected queue linearly — the
    well-known pathology of wildcard-heavy point-to-point codes at scale.
    """
    rt.n_recvs += 1
    req = Request(rt, "irecv", src=src_world, tag=tag)
    rt.charge_sw(rt.costs.recv_match)
    wildcard = src_world == -1 or tag == -1
    # first try the unexpected queue (in arrival order)
    scanned = 0
    for i, msg in enumerate(rt.unexpected):
        scanned += 1
        if _match(req, msg["src"], msg["tag"]):
            rt.charge_sw(rt.costs.unexpected_scan * (scanned if wildcard else 1))
            rt.unexpected.pop(i)
            _deliver(rt, req, msg)
            return req
    if scanned:
        rt.charge_sw(rt.costs.unexpected_scan * (scanned if wildcard else 1))
    rt.posted_recvs.append(req)
    return req


# ------------------------------------------------------------------ matching
def _deliver(rt, req: Request, msg: dict) -> None:
    """Complete a matched receive (or kick off the rendezvous data phase)."""
    if msg["kind"] == "eager":
        raw = msg["raw"]
        rt.charge_copy(len(raw))  # copy out of MPI buffering
        req.nbytes = len(raw)
        req.complete(serialization.unpack(raw))
        sync_token = msg.get("sync_token")
        if sync_token is not None:
            # MPI_Issend: tell the sender its message has been matched
            rt.conduit.am_send(rt.rank, msg["src"], "mpi.sync_ack", {"token": sync_token}, nbytes=_ENVELOPE)
        return
    # rendezvous RTS: grant a CTS; data will arrive as mpi.rdata
    rt.charge_sw(rt.costs.rndv_sw)
    msg_token = msg["token"]
    req.nbytes = msg["nbytes"]
    rt.rndv_pending[("recv", msg["src"], msg_token)] = req
    rt.conduit.am_send(
        rt.rank,
        msg["src"],
        "mpi.cts",
        {"token": msg_token},
        nbytes=_ENVELOPE,
    )


def handle_arrival(rt, am) -> None:
    """Protocol dispatch for one arrived wire message (rank context)."""
    if am.tag == "mpi.eager":
        _on_eager(rt, am)
    elif am.tag == "mpi.rts":
        _on_rts(rt, am)
    elif am.tag == "mpi.cts":
        _on_cts(rt, am)
    elif am.tag == "mpi.rdata":
        _on_rdata(rt, am)
    elif am.tag == "mpi.sync_ack":
        _on_sync_ack(rt, am)
    else:
        raise RuntimeError(f"unknown MPI wire tag {am.tag!r}")


def _find_posted(rt, src: int, tag: int) -> Optional[Request]:
    """Match an arrival against posted receives.

    Exact-match entries live in hashed buckets (O(1) charge); every
    wildcard entry inspected costs a linear-scan step.
    """
    wildcards_scanned = 0
    for i, req in enumerate(rt.posted_recvs):
        if req.src == -1 or req.tag == -1:
            wildcards_scanned += 1
        if _match(req, src, tag):
            rt.charge_sw(rt.costs.unexpected_scan * max(1, wildcards_scanned))
            return rt.posted_recvs.pop(i)
    rt.charge_sw(rt.costs.unexpected_scan * max(1, wildcards_scanned))
    return None


def _on_eager(rt, am) -> None:
    req = _find_posted(rt, am.src, am.payload["tag"])
    msg = {
        "kind": "eager",
        "src": am.src,
        "tag": am.payload["tag"],
        "raw": am.payload["raw"],
        "sync_token": am.payload.get("sync_token"),
    }
    if req is None:
        rt.n_unexpected += 1
        rt.unexpected.append(msg)
        return
    _deliver(rt, req, msg)


def _on_rts(rt, am) -> None:
    p = am.payload
    req = _find_posted(rt, am.src, p["tag"])
    msg = {
        "kind": "rts",
        "src": am.src,
        "tag": p["tag"],
        "token": p["token"],
        "nbytes": p["nbytes"],
    }
    if req is None:
        rt.n_unexpected += 1
        rt.unexpected.append(msg)
        return
    _deliver(rt, req, msg)


def _on_cts(rt, am) -> None:
    state = rt.rndv_pending.pop(am.payload["token"], None)
    if state is None:
        raise RuntimeError("CTS for unknown rendezvous token")
    raw = state["raw"]
    rt.charge_sw(rt.costs.rndv_sw)
    rt.conduit.am_send(
        rt.rank,
        state["dest"],
        "mpi.rdata",
        {"raw": raw, "token": am.payload["token"]},
        nbytes=len(raw) + _ENVELOPE,
        path=PATH_BTE,
    )
    state["req"].complete()  # user buffer is free once the DMA is queued


def _on_sync_ack(rt, am) -> None:
    state = rt.rndv_pending.pop(am.payload["token"], None)
    if state is None:
        raise RuntimeError("sync ack for unknown Issend token")
    state["req"].complete()


def _on_rdata(rt, am) -> None:
    key = ("recv", am.src, am.payload["token"])
    req = rt.rndv_pending.pop(key, None)
    if req is None:
        raise RuntimeError("rendezvous data for unknown receive")
    rt.charge_sw(rt.costs.rndv_sw)
    # zero-copy: RDMA landed directly in the user buffer (no copy charge)
    req.complete(serialization.unpack(am.payload["raw"]))
