"""repro.upcxx — the paper's contribution: UPC++ v1.0 in Python.

Public API surface (mirroring the C++ names used throughout the paper):

Execution
    run_spmd, rank_me, rank_n, progress, compute, sim_now
Asynchrony
    Future, Promise, make_future, when_all, to_future
Global memory
    GlobalPtr, NULL, allocate, new_array, deallocate
RMA
    rput, rget, rput_then_rpc, rput_irregular, rget_irregular,
    rput_strided, rget_strided
RPC
    rpc, rpc_ff, View, make_view
Completions
    operation_cx, remote_cx
Atomics
    AtomicDomain
Memory kinds (the paper's stated future work)
    Device, copy
Teams & distributed objects
    Team, team_world, local_team, DistObject
Collectives
    barrier, barrier_async, broadcast, reduce_one, reduce_all
"""

from repro.upcxx.aggregator import AggStore
from repro.upcxx.replication import ReplicaMap, ReplicatedStore
from repro.upcxx.api import (
    compute,
    in_spmd,
    progress,
    rank_me,
    rank_n,
    run_spmd,
    runtime_here,
    sim_now,
)
from repro.upcxx.atomics import AtomicDomain
from repro.upcxx.collectives import (
    allgather,
    barrier,
    barrier_async,
    broadcast,
    gather,
    reduce_all,
    reduce_one,
    scatter,
)
from repro.upcxx.completion import Completion, operation_cx, remote_cx
from repro.upcxx.costs import DEFAULT_COSTS, UpcxxCosts
from repro.upcxx.device import Device, copy
from repro.upcxx.dist_object import DistObject
from repro.upcxx.errors import (
    GlobalPtrError,
    NotInSpmdError,
    SerializationError,
    UpcxxError,
)
from repro.upcxx.future import Future, Promise, make_future, to_future, when_all
from repro.upcxx.global_ptr import NULL, GlobalPtr
from repro.upcxx.memory import allocate, deallocate, new_array, segment_usage
from repro.upcxx.persona import (
    Persona,
    current_persona,
    discharge,
    lpc,
    lpc_ff,
    master_persona,
    progress_required,
)
from repro.upcxx.rma import rget, rput, rput_then_rpc
from repro.upcxx.rpc import rpc, rpc_ff
from repro.upcxx.runtime import Runtime, World, current_runtime
from repro.upcxx.teams import Team, local_team, team_world
from repro.upcxx.view import View, make_view
from repro.upcxx.vis import rget_irregular, rget_strided, rput_irregular, rput_strided

__all__ = [
    # execution
    "run_spmd",
    "rank_me",
    "rank_n",
    "progress",
    "compute",
    "sim_now",
    "in_spmd",
    "runtime_here",
    # asynchrony
    "Future",
    "Promise",
    "make_future",
    "when_all",
    "to_future",
    # memory
    "GlobalPtr",
    "NULL",
    "allocate",
    "new_array",
    "deallocate",
    "segment_usage",
    # memory kinds (paper §VI future work)
    "Device",
    "copy",
    # rma
    "rput",
    "rget",
    "rput_then_rpc",
    "rput_irregular",
    "rget_irregular",
    "rput_strided",
    "rget_strided",
    # rpc
    "rpc",
    "rpc_ff",
    "View",
    "make_view",
    # completions
    "Completion",
    "operation_cx",
    "remote_cx",
    # atomics
    "AtomicDomain",
    # teams / dist objects
    "Team",
    "team_world",
    "local_team",
    "DistObject",
    # collectives
    "barrier",
    "barrier_async",
    "broadcast",
    "reduce_one",
    "reduce_all",
    "gather",
    "allgather",
    "scatter",
    # personas / progress
    "Persona",
    "master_persona",
    "current_persona",
    "lpc",
    "lpc_ff",
    "progress_required",
    "discharge",
    # aggregation (HipMer-style destination batching)
    "AggStore",
    # replication / online recovery
    "ReplicaMap",
    "ReplicatedStore",
    # costs / runtime access
    "UpcxxCosts",
    "DEFAULT_COSTS",
    "Runtime",
    "World",
    "current_runtime",
    # errors
    "UpcxxError",
    "NotInSpmdError",
    "GlobalPtrError",
    "SerializationError",
]
