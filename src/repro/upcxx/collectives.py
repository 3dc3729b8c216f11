"""Asynchronous collectives: barrier, broadcast, reductions.

All collectives are non-blocking and future-based (the paper lists "a rich
set of non-blocking collective operations" as the then-current work; the
ones needed by the benchmarks are implemented here with scalable
algorithms over RPC):

- ``barrier_async`` — dissemination barrier: ⌈log₂ n⌉ rounds, each rank
  sending one token per round to ``(me + 2^k) mod n``;
- ``broadcast`` — binomial tree from the root;
- ``reduce_one`` / ``reduce_all`` — binomial-tree reduction (deterministic
  combine order: children merge in ascending virtual rank).

Every rank of the team must call each collective, in the same order —
the standard UPC++ contract.  State is per-(team, epoch) so collectives
from different epochs may overlap in flight.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.upcxx.future import Future, Promise, make_future
from repro.upcxx.runtime import CompQItem, current_runtime
from repro.upcxx.teams import Team

_OPS = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "min": min,
    "max": max,
}


def _resolve_op(op: Union[str, Callable]) -> Callable:
    if callable(op):
        return op
    try:
        return _OPS[op]
    except KeyError:
        raise ValueError(f"unknown reduction op {op!r}; use one of {sorted(_OPS)}") from None


def _team_of(rt, team: Optional[Team]) -> Team:
    return team if team is not None else rt.team_world()


def _with_team(rt, team_uid: int, thunk: Callable[[Team], None]) -> None:
    """Run ``thunk(team)`` now, or defer until this rank constructs the team.

    Collective traffic can outrun a peer that has not yet finished its own
    (communication-free) team construction; deferral keeps semantics clean.
    """
    team = rt.teams.get(team_uid)
    if team is not None:
        thunk(team)
        return
    waiters = rt.coll_state.setdefault(("team-wait", team_uid), [])
    waiters.append(thunk)


def flush_team_waiters(rt, team: Team) -> None:
    """Called by Team construction: release collective traffic that raced it."""
    waiters = rt.coll_state.pop(("team-wait", team.uid), [])
    for thunk in waiters:
        rt.enqueue_complete(CompQItem(0.0, lambda t=thunk: t(team), "team-wait"))


# ------------------------------------------------------------------ barrier
def _bar_promise(rt, team_uid: int, epoch: int, rnd: int) -> Promise:
    st = rt.coll_state.setdefault(("bar", team_uid), {"epoch": 0, "promises": {}})
    key = (epoch, rnd)
    p = st["promises"].get(key)
    if p is None:
        p = Promise(rt)
        st["promises"][key] = p
    return p


def _bar_recv(team_uid: int, epoch: int, rnd: int) -> None:
    """RPC body: a dissemination token arrived for (epoch, round)."""
    rt = current_runtime()
    _bar_promise(rt, team_uid, epoch, rnd).fulfill_anonymous(1)


def barrier_async(team: Optional[Team] = None) -> Future:
    """Non-blocking dissemination barrier; future ready when all arrived."""
    from repro.upcxx.rpc import rpc_ff

    rt = current_runtime()
    team = _team_of(rt, team)
    st = rt.coll_state.setdefault(("bar", team.uid), {"epoch": 0, "promises": {}})
    epoch = st["epoch"]
    st["epoch"] += 1
    n = team.rank_n()
    if n == 1:
        return make_future()
    me = team.rank_me()
    rounds = (n - 1).bit_length()  # ceil(log2 n)

    f: Future = make_future()
    for k in range(rounds):
        pk = _bar_promise(rt, team.uid, epoch, k)

        def step(k=k, pk=pk):
            peer = team[(me + (1 << k)) % n]
            rpc_ff(peer, _bar_recv, team.uid, epoch, k)
            return pk.get_future()

        f = f.then(step)

    def cleanup():
        for k in range(rounds):
            st["promises"].pop((epoch, k), None)

    return f.then(cleanup)


def barrier(team: Optional[Team] = None) -> None:
    """Blocking barrier (``upcxx::barrier``)."""
    barrier_async(team).wait()


# ---------------------------------------------------------------- broadcast
def bcast_children(vrank: int, n: int) -> list:
    """Children of ``vrank`` in the binomial broadcast tree of size ``n``
    rooted at virtual rank 0; a child ``c``'s parent is ``c & (c - 1)``.
    MPI's ``bcast`` (:mod:`repro.mpisim.collectives`) walks the same tree."""
    mask = 1
    while mask < n and not (vrank & mask):
        mask <<= 1
    mask >>= 1
    children = []
    while mask > 0:
        if vrank + mask < n:
            children.append(vrank + mask)
        mask >>= 1
    return children


def _bcast_promise(rt, team_uid: int, epoch: int) -> Promise:
    st = rt.coll_state.setdefault(("bcast", team_uid), {"epoch": 0, "promises": {}})
    p = st["promises"].get(epoch)
    if p is None:
        p = Promise(rt)
        st["promises"][epoch] = p
    return p


def _tree_forward(team: Team, epoch: int, root: int, recv: Callable, payload, split: bool) -> None:
    """Send ``payload`` by ``recv`` to this rank's children in the binomial
    tree rooted at ``root``.  With ``split`` the payload is keyed by
    virtual rank and child ``c`` gets only its subtree ``[c, 2c - vrank)``."""
    from repro.upcxx.rpc import rpc_ff

    n = team.rank_n()
    vrank = (team.rank_me() - root) % n
    for c in bcast_children(vrank, n):
        if split:
            sub = {v: payload[v] for v in range(c, min(2 * c - vrank, n)) if v in payload}
        else:
            sub = payload
        rpc_ff(team[(c + root) % n], recv, team.uid, epoch, root, sub)


def _tree_start(rt, team: Team, uid, root: int, recv: Callable, mine, payload, split: bool) -> Future:
    """The caller's side of broadcast and scatter: take the next epoch;
    the root keeps ``mine`` and sends ``payload`` down the tree, every
    other rank gets a future of the share ``recv`` delivers."""
    st = rt.coll_state.setdefault(("bcast", uid), {"epoch": 0, "promises": {}})
    epoch = st["epoch"]
    st["epoch"] += 1
    p = _bcast_promise(rt, uid, epoch)
    if team.rank_me() == root:
        p.fulfill_result(mine)
        st["promises"].pop(epoch, None)
        _tree_forward(team, epoch, root, recv, payload, split)
        return p.get_future()
    fut = p.get_future()
    # cleanup once the local caller has its value (the handler must not
    # remove the promise — the payload can outrun this call)
    fut._on_ready(lambda: st["promises"].pop(epoch, None))
    return fut


def _bcast_recv(team_uid: int, epoch: int, root: int, value) -> None:
    """RPC body: broadcast payload arrived; deliver locally and forward.

    Note: the promise is NOT removed here — the payload may arrive before
    the local ``broadcast()`` call, which must still find the fulfilled
    promise (cleanup belongs to the local caller).
    """
    rt = current_runtime()

    def go(team: Team):
        _bcast_promise(rt, team_uid, epoch).fulfill_result(value)
        _tree_forward(team, epoch, root, _bcast_recv, value, False)

    _with_team(rt, team_uid, go)


def broadcast(value, root: int = 0, team: Optional[Team] = None) -> Future:
    """Non-blocking broadcast from team rank ``root``; future of the value.

    Non-root callers pass any placeholder value (ignored), as in
    ``upcxx::broadcast``.
    """
    rt = current_runtime()
    team = _team_of(rt, team)
    if team.rank_n() == 1:
        return make_future(value)
    return _tree_start(rt, team, team.uid, root, _bcast_recv, value, value, False)


# ---------------------------------------------------------------- reductions
def _red_entry(rt, team_uid: int, epoch: int) -> dict:
    st = rt.coll_state.setdefault(("red", team_uid), {"epoch": 0, "entries": {}})
    entry = st["entries"].get(epoch)
    if entry is None:
        entry = {
            "child_vals": {},  # child vrank -> contribution
            "have_own": False,
            "own": None,
            "expected": None,  # set when the local call happens
            "op": None,
            "promise": Promise(rt),
            "root": None,
            "team": None,
        }
        st["entries"][epoch] = entry
    return entry


def _red_try_complete(rt, team_uid: int, epoch: int) -> None:
    entry = _red_entry(rt, team_uid, epoch)
    if not entry["have_own"] or entry["expected"] is None:
        return
    if len(entry["child_vals"]) < entry["expected"]:
        return
    from repro.upcxx.rpc import rpc_ff

    op = entry["op"]
    acc = entry["own"]
    for child_v in sorted(entry["child_vals"]):
        acc = op(acc, entry["child_vals"][child_v])

    team: Team = entry["team"]
    n = team.rank_n()
    root = entry["root"]
    me = team.rank_me()
    vrank = (me - root) % n
    rt.coll_state[("red", team_uid)]["entries"].pop(epoch, None)
    if vrank == 0:
        entry["promise"].fulfill_result(acc)
        return
    parent_v = vrank & (vrank - 1)  # clear my lowest set bit
    parent_world = team[(parent_v + root) % n]
    rpc_ff(parent_world, _red_recv, team_uid, epoch, vrank, acc)
    entry["promise"].fulfill_result(None)


def _red_recv(team_uid: int, epoch: int, child_vrank: int, value) -> None:
    """RPC body: a child subtree's partial reduction arrived."""
    rt = current_runtime()
    entry = _red_entry(rt, team_uid, epoch)
    entry["child_vals"][child_vrank] = value
    _red_try_complete(rt, team_uid, epoch)


def reduce_one(value, op: Union[str, Callable] = "+", root: int = 0, team: Optional[Team] = None) -> Future:
    """Non-blocking reduction to team rank ``root``.

    The root's future yields the reduced value; other ranks' futures yield
    ``None`` once their subtree contribution has been sent on.
    """
    rt = current_runtime()
    team = _team_of(rt, team)
    st = rt.coll_state.setdefault(("red", team.uid), {"epoch": 0, "entries": {}})
    epoch = st["epoch"]
    st["epoch"] += 1
    opf = _resolve_op(op)
    n = team.rank_n()
    if n == 1:
        return make_future(value)
    me = team.rank_me()
    vrank = (me - root) % n
    entry = _red_entry(rt, team.uid, epoch)
    entry["have_own"] = True
    entry["own"] = value
    entry["op"] = opf
    entry["expected"] = len(bcast_children(vrank, n))
    entry["root"] = root
    entry["team"] = team
    fut = entry["promise"].get_future()
    _red_try_complete(rt, team.uid, epoch)
    return fut


def reduce_all(value, op: Union[str, Callable] = "+", team: Optional[Team] = None) -> Future:
    """Non-blocking all-reduce: reduce to team rank 0, then broadcast."""
    rt = current_runtime()
    team = _team_of(rt, team)
    f = reduce_one(value, op, 0, team)
    return f.then(lambda r: broadcast(r, 0, team))


# ------------------------------------------------------------ gather/scatter
def gather(value, root: int = 0, team: Optional[Team] = None) -> Future:
    """Non-blocking gather to team rank ``root``.

    The root's future yields the list of values ordered by team rank;
    other ranks get ``None``.  Implemented as a binomial-tree reduction
    merging per-rank dictionaries (scalable: no rank handles more than its
    subtree's values at once).
    """
    rt = current_runtime()
    team = _team_of(rt, team)
    me = team.rank_me()
    n = team.rank_n()
    f = reduce_one({me: value}, lambda a, b: {**a, **b}, root, team)

    def finish(merged):
        if merged is None:
            # keep arity 1 (a then-callback returning bare None would
            # collapse to an empty future and break downstream chaining)
            return make_future(None)
        return [merged[i] for i in range(n)]

    return f.then(finish)


def allgather(value, team: Optional[Team] = None) -> Future:
    """Non-blocking allgather: everyone gets the team-ordered value list."""
    rt = current_runtime()
    team = _team_of(rt, team)
    f = gather(value, 0, team)
    return f.then(lambda lst: broadcast(lst, 0, team))


def _scatter_recv(team_uid: int, epoch: int, root: int, chunk: dict) -> None:
    """RPC body: this rank's subtree of a scatter arrived; keep its own
    value and forward the rest."""
    rt = current_runtime()

    def go(team: Team):
        me_v = (team.rank_me() - root) % team.rank_n()
        _bcast_promise(rt, ("scatter", team_uid), epoch).fulfill_result(chunk[me_v])
        _tree_forward(team, epoch, root, _scatter_recv, chunk, True)

    _with_team(rt, team_uid, go)


def scatter(values, root: int = 0, team: Optional[Team] = None) -> Future:
    """Non-blocking scatter from ``root``: rank *i* receives ``values[i]``.

    Non-root callers pass any placeholder for ``values``.
    """
    rt = current_runtime()
    team = _team_of(rt, team)
    n = team.rank_n()
    if n == 1:
        return make_future(values[0])
    mine = chunk = None
    if team.rank_me() == root:
        if len(values) != n:
            raise ValueError(f"scatter needs {n} values, got {len(values)}")
        # index values by virtual rank so subtree splits are contiguous
        chunk = {(i - root) % n: values[i] for i in range(n)}
        mine = chunk[0]
    return _tree_start(rt, team, ("scatter", team.uid), root, _scatter_recv, mine, chunk, True)
