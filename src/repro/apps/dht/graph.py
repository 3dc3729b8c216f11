"""Distributed graph over the hash table (the paper's Vertex example).

The paper argues RPCs are "particularly elegant when we need to update
complex entries": adding a neighbor to a vertex's adjacency list is one
RPC that mutates the STL-style structure in place, where pure RMA would
need lock + rget + local update + rput + unlock, and a representation
amenable to RMA in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import repro.upcxx as upcxx
from repro.upcxx.aggregator import default_route
from repro.upcxx.future import Future


@dataclass
class Vertex:
    """A graph vertex with arbitrary properties and a neighbor list."""

    vid: int
    properties: dict = field(default_factory=dict)
    nbs: List[int] = field(default_factory=list)


def _insert_vertex(dgraph: upcxx.DistObject, vid: int, properties: dict) -> None:
    rt = upcxx.current_runtime()
    rt.charge_sw(rt.cpu.map_insert)
    dgraph.value[vid] = Vertex(vid, dict(properties))


def _add_neighbor(dgraph: upcxx.DistObject, vid: int, nb: int) -> bool:
    """RPC body: the paper's in-place ``push_back`` onto vertex->nbs."""
    rt = upcxx.current_runtime()
    rt.charge_sw(rt.cpu.map_lookup)
    vertex = dgraph.value.get(vid)
    if vertex is None:
        return False
    vertex.nbs.append(nb)
    return True


def _get_vertex(dgraph: upcxx.DistObject, vid: int) -> Optional[Vertex]:
    rt = upcxx.current_runtime()
    rt.charge_sw(rt.cpu.map_lookup)
    v = dgraph.value.get(vid)
    if v is None:
        return None
    return Vertex(v.vid, dict(v.properties), list(v.nbs))


class DistGraph:
    """A vertex store distributed by vertex id."""

    def __init__(self, team: Optional[upcxx.Team] = None):
        self.team = team if team is not None else upcxx.team_world()
        self.local: dict = {}
        self._dobj = upcxx.DistObject(self.local, team=self.team)

    def owner_of(self, vid: int) -> int:
        return self.team[default_route(vid, self.team.rank_n())]

    def insert_vertex(self, vid: int, **properties) -> Future:
        return upcxx.rpc(self.owner_of(vid), _insert_vertex, self._dobj, vid, properties)

    def add_edge(self, u: int, v: int) -> Future:
        """Add a directed edge u -> v (one RPC to u's owner)."""
        return upcxx.rpc(self.owner_of(u), _add_neighbor, self._dobj, u, v)

    def add_undirected_edge(self, u: int, v: int) -> Future:
        """Both directions, conjoined into one future."""
        return upcxx.when_all(self.add_edge(u, v), self.add_edge(v, u))

    def get_vertex(self, vid: int) -> Future:
        """Future of a snapshot copy of the vertex (or None)."""
        return upcxx.rpc(self.owner_of(vid), _get_vertex, self._dobj, vid)
