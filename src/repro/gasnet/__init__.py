"""GASNet-EX substitute: the communication substrate UPC++ runs on.

The real UPC++ runtime sits on GASNet-EX, which provides one-sided RMA
(put/get), Active Messages (AM), shared segments, and completion
notification over the Cray Aries NIC.  This package reproduces that
contract over the deterministic DES in :mod:`repro.sim`:

- :mod:`repro.gasnet.machine` — node/rank topology (nodes x procs-per-node);
- :mod:`repro.gasnet.network` — the wire model: one-way latency, FMA/BTE
  bandwidth paths, per-NIC injection serialization;
- :mod:`repro.gasnet.cpumodel` — per-platform software cost model
  (Haswell vs. KNL serial-speed ratio, per-byte copy/serialize costs);
- :mod:`repro.gasnet.segment` — the shared segment and its allocator;
- :mod:`repro.gasnet.handle` — the completion handle of a put, get or atomic;
- :mod:`repro.gasnet.am` — the active-message record and per-rank inboxes;
- :mod:`repro.gasnet.conduit` — ties it together: ``put``/``get``/``am``/
  ``atomic`` over one wire path, plus per-rank segments and inboxes.

The conduit models *hardware* time only (NIC occupancy, wire latency,
remote commit).  Software CPU overheads are charged by the client layers
(:mod:`repro.upcxx`, :mod:`repro.mpisim`) so that the two stacks can differ
exactly where the paper says they differ.
"""

from repro.gasnet.machine import Machine
from repro.gasnet.network import NetworkModel, AriesNetwork, PATH_FMA, PATH_BTE
from repro.gasnet.cpumodel import CpuModel, HASWELL, KNL
from repro.gasnet.segment import Segment, SegmentAllocationError
from repro.gasnet.am import AMMessage, AMInbox
from repro.gasnet.conduit import Conduit

__all__ = [
    "Machine",
    "NetworkModel",
    "AriesNetwork",
    "PATH_FMA",
    "PATH_BTE",
    "CpuModel",
    "HASWELL",
    "KNL",
    "Segment",
    "SegmentAllocationError",
    "AMMessage",
    "AMInbox",
    "Conduit",
]
