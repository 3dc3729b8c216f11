"""Machine topology, and the one job both client layers run on.

Cori-style placement: ranks are laid out in contiguous blocks of
``procs_per_node`` (rank r lives on node r // ppn), matching the default
SLURM block distribution used in the paper's runs.  :func:`build_job`
assembles the identical machine under ``run_spmd`` and ``run_mpi``, so
the two stacks differ only in what their client layers charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.gasnet.cpumodel import platform_cpu
from repro.gasnet.network import AriesNetwork, NetworkModel
from repro.sim.coop import Scheduler


@dataclass(frozen=True)
class Machine:
    """A homogeneous cluster of ``n_nodes`` nodes, ``procs_per_node`` each.

    The total rank count is ``n_nodes * procs_per_node``; jobs may use fewer
    ranks (the tail of the last node stays idle), mirroring how a real
    allocation can be under-subscribed.
    """

    n_nodes: int
    procs_per_node: int
    name: str = "machine"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.procs_per_node < 1:
            raise ValueError(f"procs_per_node must be >= 1, got {self.procs_per_node}")

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.procs_per_node

    def node_of(self, rank: int) -> int:
        """The node hosting ``rank`` (block placement)."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
        return rank // self.procs_per_node

    def same_node(self, a: int, b: int) -> bool:
        """Whether two ranks share a node (=> shared-memory data path)."""
        return self.node_of(a) == self.node_of(b)

    def ranks_on_node(self, node: int) -> range:
        """All ranks placed on ``node``."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        lo = node * self.procs_per_node
        return range(lo, lo + self.procs_per_node)

    @classmethod
    def for_ranks(cls, n_ranks: int, procs_per_node: int, name: str = "machine") -> "Machine":
        """Smallest machine of ``procs_per_node``-wide nodes fitting ``n_ranks``."""
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        if procs_per_node < 1:
            raise ValueError(f"procs_per_node must be >= 1, got {procs_per_node}")
        n_nodes = -(-n_ranks // procs_per_node)  # ceil division
        return cls(n_nodes=n_nodes, procs_per_node=procs_per_node, name=name)


def lookahead(network: NetworkModel) -> float:
    """The scheduler's lookahead ``L`` for a job on ``network``: a rank
    reaches another only through a conduit frame, and no frame lands
    sooner than the shorter one-way latency after its sender's clock
    (:mod:`repro.sim.coop`)."""
    return min(network.latency_oneway_shm, network.latency_oneway)


def build_job(ranks: int, platform: str, ppn: Optional[int], max_time: float, trace=None):
    """``(machine, network, cpu, sched)`` of a ``ranks``-process job on
    ``platform``: nodes ``ppn`` wide (default: the platform's DHT width),
    the Aries network, the platform's CPU model and a scheduler at
    lookahead :func:`lookahead`."""
    cpu = platform_cpu(platform)
    machine = Machine.for_ranks(ranks, ppn if ppn is not None else cpu.ppn_dht, name=platform)
    network = AriesNetwork()
    sched = Scheduler(ranks, trace=trace, max_time=max_time, lookahead=lookahead(network))
    return machine, network, cpu, sched
