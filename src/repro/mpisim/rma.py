"""MPI-3 one-sided RMA: windows, Put, passive-target synchronization.

Matches the semantics the paper benchmarks against (IMB-RMA ``Unidir_put``):
a passive-target access epoch (``lock``) with completion via ``flush``.
Puts are one-sided over the conduit — no target CPU — but carry the
Cray-MPICH-like software profile from :mod:`repro.mpisim.profile`:
heavier per-op path than UPC++, an extra penalty in the 256 B–2 KiB
protocol-switch window, and the mid-size pipeline-efficiency dip that
produces the paper's Fig. 3b bandwidth gap.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.gasnet.network import PATH_BTE, PATH_FMA
from repro.mpisim.comm import Communicator


class Win:
    """An RMA window: one allocation per rank, exposed for Put."""

    def __init__(self, comm: Communicator, nbytes: int, offsets: List[int]):
        self.comm = comm
        self.rt = comm.rt
        self.nbytes = nbytes
        #: segment offset of the window on every comm rank
        self.offsets = offsets
        #: outstanding one-sided ops per target comm rank
        self._outstanding = [0] * comm.size

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def allocate(cls, comm: Communicator, nbytes: int) -> "Win":
        """Collective window allocation (every comm member must call)."""
        if nbytes <= 0:
            raise ValueError(f"window size must be positive, got {nbytes}")
        rt = comm.rt
        off = rt.conduit.segment(rt.rank).allocate(nbytes)
        offsets = comm.allgather(off)
        return cls(comm, nbytes, offsets)

    def local_view(self, dtype=np.uint8, count: Optional[int] = None) -> np.ndarray:
        """Numpy view of the local window memory."""
        dt = np.dtype(dtype)
        n = count if count is not None else self.nbytes // dt.itemsize
        seg = self.rt.conduit.segment(self.rt.rank)
        return seg.view(self.offsets[self.comm.rank], dt, n)

    # ------------------------------------------------------- synchronization
    def lock(self, target: int) -> None:
        """Begin a passive-target epoch (cheap on RDMA hardware)."""
        self.rt.charge_sw(self.rt.costs.progress_poll)

    def unlock(self, target: int) -> None:
        """End the epoch: completes all operations to ``target``."""
        self.flush(target)

    def flush(self, target: int) -> None:
        """Block until all ops this rank issued to ``target`` completed
        (``MPI_Win_flush``).

        The software cost lands *after* completion is detected (queue
        teardown/bookkeeping), i.e. on the caller's critical path — this is
        part of why the paper measures MPI blocking puts slower than UPC++.
        """
        self.rt.wait_until(lambda: self._outstanding[target] == 0, "MPI_Win_flush")
        self.rt.charge_sw(self.rt.costs.flush_sw)

    # ------------------------------------------------------------ data motion
    def _check(self, target: int, offset: int, nbytes: int) -> None:
        if not 0 <= target < self.comm.size:
            raise ValueError(f"target {target} out of range")
        if offset < 0 or offset + nbytes > self.nbytes:
            raise ValueError(
                f"window access [{offset}, {offset + nbytes}) outside window of {self.nbytes}B"
            )

    def put(self, data, target: int, offset: int = 0) -> None:
        """Nonblocking ``MPI_Put``; complete it with ``flush``."""
        rt = self.rt
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data).tobytes()
        else:
            data = bytes(data)
        nbytes = len(data)
        self._check(target, offset, nbytes)
        # The protocol-switch penalty stalls only an idle pipeline (it is a
        # latency-path phenomenon): back-to-back flood puts keep the target
        # queue busy and bypass it, matching IMB aggregate-mode behavior.
        extra = rt.costs.latency_window_extra(nbytes) if self._outstanding[target] == 0 else 0.0
        rt.charge_sw(rt.costs.put_sw + extra)
        path = PATH_FMA if nbytes < rt.costs.bte_threshold else PATH_BTE
        self._outstanding[target] += 1
        target_world = self.comm.members[target]
        handle = rt.conduit.put_nb(
            rt.rank,
            target_world,
            self.offsets[target] + offset,
            data,
            path,
            occ_scale=rt.costs.rma_occ_scale(nbytes),
        )

        def on_done(h):  # network context
            self._outstanding[target] -= 1
            rt.sched.wake(rt.rank, h.time_done)

        handle.on_complete(on_done)
