"""RMA landing-zone distributed hash table (the paper's optimized listing)
and the serial baseline.

``insert`` is the exact chain from §IV-C:

1. ``rpc(get_target(key), make_lz, key, len)`` — the target allocates
   uninitialized shared memory (the *landing zone*), records
   ``key -> (gptr, len)`` in its local map, and returns the global pointer;
2. ``.then(lambda dest: rput(val, dest))`` — the value travels by
   zero-copy one-sided put into the landing zone.

The returned future represents the whole chain, so callers can block per
insert (the paper's latency-limited benchmark) or pipeline many inserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.upcxx as upcxx
from repro.upcxx.aggregator import default_route
from repro.upcxx.future import Future
from repro.upcxx.global_ptr import GlobalPtr


@dataclass(frozen=True)
class LandingZone:
    """The paper's ``lz_t``: a global pointer and the stored length."""

    gptr: GlobalPtr
    length: int


def _make_lz(dmap: upcxx.DistObject, key: int, length: int) -> GlobalPtr:
    """RPC body: allocate the landing zone and publish key -> lz (paper's
    ``make_lz``)."""
    rt = upcxx.current_runtime()
    dest = upcxx.allocate(length, rt=rt)
    rt.charge_sw(rt.cpu.map_insert)
    dmap.value[key] = LandingZone(dest, length)
    return dest


def _get_lz(dmap: upcxx.DistObject, key: int) -> Optional[GlobalPtr]:
    rt = upcxx.current_runtime()
    rt.charge_sw(rt.cpu.map_lookup)
    lz = dmap.value.get(key)
    return None if lz is None else GlobalPtr(lz.gptr.rank, lz.gptr.offset, np.uint8, lz.length)


class DhtRmaLz:
    """The RPC+RMA hash table from the paper (Fig. 4's subject)."""

    def __init__(self):
        #: key -> LandingZone for keys owned by this rank
        self.local_map: dict = {}
        self._dobj = upcxx.DistObject(self.local_map)
        self._n = upcxx.rank_n()

    def target_of(self, key: int) -> int:
        return default_route(key, self._n)

    def insert(self, key: int, val: bytes) -> Future:
        """The paper's insert: RPC for the landing zone, then rput."""
        val = bytes(val)
        f = upcxx.rpc(self.target_of(key), _make_lz, self._dobj, key, len(val))
        return f.then(lambda dest: upcxx.rput(val, dest))

    def find(self, key: int) -> Future:
        """Lookup: RPC for the landing zone, then rget of the value."""

        def fetch(lz: Optional[GlobalPtr]):
            if lz is None:
                return None
            return upcxx.rget(lz).then(lambda arr: bytes(arr))

        return upcxx.rpc(self.target_of(key), _get_lz, self._dobj, key).then(fetch)

    def local_size(self) -> int:
        return len(self.local_map)


class SerialMap:
    """The 1-process baseline of Fig. 4: a plain local map, no UPC++ calls.

    CPU costs are charged identically to the distributed version's local
    path (hash-map insert + value store), so the serial point represents
    "the best we can achieve with the underlying standard library".
    """

    def __init__(self):
        self.map: dict = {}

    def insert(self, key: int, val: bytes) -> None:
        rt = upcxx.current_runtime()
        rt.charge_sw(rt.cpu.map_insert)
        rt.charge_copy(len(val))
        self.map[key] = bytes(val)

    def find(self, key: int):
        rt = upcxx.current_runtime()
        rt.charge_sw(rt.cpu.map_lookup)
        return self.map.get(key)

    def local_size(self) -> int:
        return len(self.map)
