"""MPI world, per-rank runtime, and communicators.

The :class:`MpiRuntime` is MPI's analogue of the UPC++ progress engine: it
polls the conduit inbox, matches two-sided traffic against posted receives,
and drives the rendezvous protocol.  Unlike the UPC++ runtime there is no
user-visible asynchrony machinery (no futures): requests are the only
completion objects, and collective algorithms are built from point-to-point
internally.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.gasnet.conduit import Conduit
from repro.gasnet.cpumodel import CpuModel, platform_cpu
from repro.gasnet.machine import Machine
from repro.gasnet.network import AriesNetwork, NetworkModel
from repro.sim.coop import Scheduler, current_client
from repro.mpisim.profile import DEFAULT_MPI_COSTS, MpiCosts
from repro.mpisim.request import Request

#: wildcard source / tag
ANY_SOURCE = -1
ANY_TAG = -1


class MpiWorld:
    """Per-job MPI state shared by all ranks."""

    def __init__(
        self,
        sched: Scheduler,
        machine: Machine,
        network: NetworkModel,
        cpu: CpuModel,
        costs: MpiCosts = DEFAULT_MPI_COSTS,
        segment_size: int = 32 * 1024 * 1024,
    ):
        self.sched = sched
        self.machine = machine
        self.network = network
        self.cpu = cpu
        self.costs = costs
        self.conduit = Conduit(sched, machine, network, segment_size)
        self.n_ranks = sched.n_ranks
        self.runtimes: List[Optional["MpiRuntime"]] = [None] * self.n_ranks

    def close(self) -> None:
        """The job is over: close the conduit and detach the runtimes, so
        that reference counting alone frees the job at ``run_mpi`` return."""
        self.conduit.close()
        for rt in self.runtimes:
            if rt is not None:
                # requests an abort left unmatched point back at their runtime
                rt.posted_recvs.clear()
                rt.unexpected.clear()
                rt.rndv_pending.clear()
        self.runtimes = []


class MpiRuntime:
    """One rank's MPI library state (matching queues, rendezvous table)."""

    def __init__(self, world: MpiWorld, rank: int):
        self.world = world
        self.rank = rank
        self.sched = world.sched
        self.cpu = world.cpu
        self.costs = world.costs
        self.conduit = world.conduit
        #: receives posted but not yet matched: list of Request
        self.posted_recvs: List[Request] = []
        #: arrived messages with no matching posted receive
        self.unexpected: List[dict] = []
        #: sender-side rendezvous state: token -> dict
        self.rndv_pending: dict = {}
        self._token_seq = 0
        # counters
        self.n_sends = 0
        self.n_recvs = 0
        self.n_unexpected = 0
        world.runtimes[rank] = self

    # --------------------------------------------------------------- charges
    def charge_sw(self, base_seconds: float) -> None:
        self.sched.charge(self.cpu.t(base_seconds))

    def charge_copy(self, nbytes: int) -> None:
        if nbytes > 0:
            self.sched.charge(self.cpu.copy_time(nbytes))

    def next_token(self) -> int:
        self._token_seq += 1
        return self._token_seq

    # -------------------------------------------------------------- progress
    def progress(self) -> None:
        """Poll the network and run protocol handlers for due arrivals."""
        from repro.mpisim import p2p

        self.charge_sw(self.costs.progress_poll)
        self.sched.checkpoint()
        inbox = self.conduit.inbox(self.rank)
        now = self.sched.now()
        while inbox.has_due(now):
            msg = inbox.poll(now)
            p2p.handle_arrival(self, msg)
            now = self.sched.now()

    def wait_all(self, requests: Sequence[Request]) -> None:
        """Progress until every request is complete."""
        while True:
            if all(r.done for r in requests):
                return
            self.progress()
            if all(r.done for r in requests):
                return
            self.sched.block("MPI_Waitall")

    def wait_until(self, pred: Callable[[], bool], reason: str = "MPI wait") -> None:
        """Progress until an arbitrary predicate holds (used by flush)."""
        while not pred():
            self.progress()
            if pred():
                return
            self.sched.block(reason)


class Communicator:
    """An ordered group of world ranks (mpi4py-flavored interface)."""

    def __init__(self, rt: MpiRuntime, members: List[int]):
        self.rt = rt
        self.members = list(members)
        self._index = {w: i for i, w in enumerate(self.members)}

    # ---------------------------------------------------------------- shape
    def Get_rank(self) -> int:
        return self._index[self.rt.rank]

    def Get_size(self) -> int:
        return len(self.members)

    @property
    def rank(self) -> int:
        return self.Get_rank()

    @property
    def size(self) -> int:
        return self.Get_size()

    def sub(self, comm_ranks: Sequence[int]) -> "Communicator":
        """Communicator over a subset (all members call identically)."""
        return Communicator(self.rt, [self.members[i] for i in comm_ranks])

    # ------------------------------------------------------------------ p2p
    def isend(self, obj, dest: int, tag: int = 0) -> Request:
        from repro.mpisim import p2p

        return p2p.isend(self.rt, obj, self.members[dest], tag)

    def issend(self, obj, dest: int, tag: int = 0) -> Request:
        """Synchronous-mode nonblocking send (``MPI_Issend``)."""
        from repro.mpisim import p2p

        return p2p.issend(self.rt, obj, self.members[dest], tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        from repro.mpisim import p2p

        src_world = self.members[source] if source != ANY_SOURCE else ANY_SOURCE
        return p2p.irecv(self.rt, src_world, tag)

    def send(self, obj, dest: int, tag: int = 0) -> None:
        self.isend(obj, dest, tag).wait()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        return self.irecv(source, tag).wait()

    # ----------------------------------------------------------- collectives
    def barrier(self) -> None:
        from repro.mpisim import collectives

        collectives.barrier(self)

    def bcast(self, obj, root: int = 0):
        from repro.mpisim import collectives

        return collectives.bcast(self, obj, root)

    def allgather(self, value) -> list:
        from repro.mpisim import collectives

        return collectives.allgather(self, value)

    def alltoallv(self, send_objs: Sequence) -> list:
        from repro.mpisim import collectives

        return collectives.alltoallv(self, send_objs)


def comm_world() -> Communicator:
    """This rank's COMM_WORLD (inside run_mpi): the scheduler's client slot."""
    comm = current_client()
    if not isinstance(comm, Communicator):
        raise RuntimeError("MPI is not initialized on this rank (use run_mpi)")
    return comm


def run_mpi(
    fn: Callable[[], object],
    ranks: int,
    platform: str = "haswell",
    ppn: Optional[int] = None,
    network: Optional[NetworkModel] = None,
    cpu: Optional[CpuModel] = None,
    costs: MpiCosts = DEFAULT_MPI_COSTS,
    segment_size: int = 32 * 1024 * 1024,
    max_time: float = 1e6,
) -> List[object]:
    """Run ``fn`` as an MPI program on ``ranks`` simulated processes."""
    from repro.upcxx.api import _lookahead, default_ppn

    ppn = ppn if ppn is not None else default_ppn(platform)
    machine = Machine.for_ranks(ranks, ppn, name=platform)
    network = network if network is not None else AriesNetwork()
    cpu = cpu if cpu is not None else platform_cpu(platform)
    sched = Scheduler(ranks, max_time=max_time, lookahead=_lookahead(network))
    world = MpiWorld(sched, machine, network, cpu, costs, segment_size)

    def bootstrap(rank: int):
        rt = MpiRuntime(world, rank)
        sched.set_client(Communicator(rt, list(range(ranks))))
        try:
            return fn()
        finally:
            sched.set_client(None)

    try:
        return sched.run(bootstrap)
    finally:
        world.close()
