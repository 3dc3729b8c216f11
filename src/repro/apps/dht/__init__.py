"""Distributed hash table (paper §IV-C).

Three implementations with identical semantics:

- :class:`~repro.apps.dht.rpc_only.DhtRpcOnly` — the paper's "simplest
  implementation": inserts ship key+value inside an RPC;
- :class:`~repro.apps.dht.rma_lz.DhtRmaLz` — the paper's optimized version:
  an RPC creates a *landing zone* in the target's shared segment, then the
  value travels by zero-copy RMA put (the ``make_lz`` + ``rput`` chain of
  the paper's code listing);
- :class:`~repro.apps.dht.rma_lz.SerialMap` — the 1-process baseline that
  "omits all calls to UPC++" (the first point of Fig. 4).

Plus :mod:`~repro.apps.dht.graph`: the paper's distributed-graph example
(vertices with neighbor lists updated in place by RPC).
"""

from repro.apps.dht.rpc_only import DhtRpcOnly
from repro.apps.dht.rma_lz import DhtRmaLz, SerialMap
from repro.apps.dht.graph import DistGraph, Vertex

__all__ = ["DhtRpcOnly", "DhtRmaLz", "SerialMap", "DistGraph", "Vertex"]
