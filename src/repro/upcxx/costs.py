"""Software-path CPU costs of the UPC++ runtime.

These are the per-operation instruction-path costs the *library* adds on
top of the hardware, calibrated on Haswell (the platform CPU model scales
them for KNL).  The decomposition follows the paper's §III queues:

- injection cost — creating the promise, enqueueing on *defQ*, handing the
  operation to GASNet (moving it to *actQ*);
- completion cost — promoting a finished operation to *compQ* and
  fulfilling its promise during user progress;
- progress-poll cost — the fixed cost of one ``progress()`` call;
- RPC dispatch — deserializing the envelope and invoking the user function
  at the target.

Magnitudes are representative of GASNet-EX-era measurements (small
fractions of a microsecond) and are the single place to recalibrate if one
wants to model a different runtime generation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import US


@dataclass(frozen=True)
class UpcxxCosts:
    """Haswell-calibrated per-op software costs (seconds), tagged (DESIGN.md §4)."""

    #: [repr] rput/rget: promise creation + defQ enqueue + GASNet injection
    rma_inject: float = 0.35 * US
    #: [repr] promoting one completed op actQ -> compQ and fulfilling its promise
    completion: float = 0.06 * US
    #: [repr] fixed cost of one progress() call (queue polling)
    progress_poll: float = 0.05 * US
    #: [repr] scheduling/invoking one .then() callback
    then_dispatch: float = 0.06 * US
    #: [repr] RPC injection (envelope build + AM send), excluding payload copy
    rpc_inject: float = 0.50 * US
    #: [repr] RPC execution setup at the target (envelope decode + call)
    rpc_dispatch: float = 0.60 * US
    #: [repr] sending an RPC's return value back
    rpc_reply_inject: float = 0.35 * US
    #: [repr] shared-segment allocate/deallocate
    alloc: float = 0.25 * US
    #: [repr] remote atomic injection
    atomic_inject: float = 0.30 * US
    #: [repr] per-fragment extra cost for non-contiguous (VIS) transfers
    vis_per_fragment: float = 0.08 * US
    #: [repr] dist_object registry lookup/registration
    dist_object_lookup: float = 0.08 * US

    #: [repr] GASNet path selection: FMA below this many bytes, BTE at/above.  MPI
    #: switches at the same 4096, so the switch plays no part in the model's
    #: Fig. 3b gap: that is ``MpiCosts``'s fitted dip (``rma_occ_scale``).
    bte_threshold: int = 4096


DEFAULT_COSTS = UpcxxCosts()
