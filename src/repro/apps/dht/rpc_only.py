"""RPC-only distributed hash table (the paper's first listing).

Every insert is one RPC carrying the key and the value; the target's RPC
handler performs the local map insert.  Simple and correct, but the value
bytes are copied through serialization at both ends — which is why the
paper then adds the RMA landing-zone variant for larger values.
"""

from __future__ import annotations

from typing import Optional

import repro.upcxx as upcxx
from repro.upcxx.aggregator import default_route
from repro.upcxx.future import Future


def _local_insert(dmap: upcxx.DistObject, key: int, val: bytes) -> None:
    """RPC body: the target-side map update (charged as a hash-map insert
    plus the value store)."""
    rt = upcxx.current_runtime()
    rt.charge_sw(rt.cpu.map_insert)
    rt.charge_copy(len(val))
    dmap.value[key] = val


def _local_find(dmap: upcxx.DistObject, key: int):
    rt = upcxx.current_runtime()
    rt.charge_sw(rt.cpu.map_lookup)
    return dmap.value.get(key)


class DhtRpcOnly:
    """Distributed hash table where both insert and find are pure RPC."""

    def __init__(self, team: Optional[upcxx.Team] = None):
        self.team = team if team is not None else upcxx.team_world()
        #: the local shard (the paper's ``local_map``)
        self.local_map: dict = {}
        self._dobj = upcxx.DistObject(self.local_map, team=self.team)

    def target_of(self, key: int) -> int:
        """World rank owning ``key``."""
        return self.team[default_route(key, self.team.rank_n())]

    def insert(self, key: int, val: bytes) -> Future:
        """Asynchronous insert; the future completes when the target has
        stored the value."""
        return upcxx.rpc(self.target_of(key), _local_insert, self._dobj, key, bytes(val))

    def find(self, key: int) -> Future:
        """Asynchronous lookup; future of the value (or None)."""
        return upcxx.rpc(self.target_of(key), _local_find, self._dobj, key)

    def local_size(self) -> int:
        return len(self.local_map)
