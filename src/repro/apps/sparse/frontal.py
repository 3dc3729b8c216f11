"""Distributed frontal matrices: 2-D block-cyclic layout and local storage.

Each front is distributed over its team in a 2-D block-cyclic manner with a
fixed block size (paper §IV-D: "frontal matrices are then distributed in a
2D block-cyclic manner with a fixed block size among processes of each
group").  A rank stores only its owned blocks, so per-rank memory is
front_size²/P — the scalable layout extend-add must route into.

All index math is vectorized: packing produces, per destination rank,
numpy arrays of (parent-local row, parent-local col, value) triples; the
wire carries the values as a zero-copy view plus the two index arrays.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.sparse.symbolic import FrontSymbolic


class BlockCyclic:
    """A pr x pc process grid with square blocks of ``block`` elements."""

    def __init__(self, n_procs: int, block: int = 24):
        if n_procs < 1:
            raise ValueError(f"n_procs must be >= 1, got {n_procs}")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        pr = int(math.isqrt(n_procs))
        while n_procs % pr:
            pr -= 1
        self.pr = pr
        self.pc = n_procs // pr
        self.block = block
        self.n_procs = n_procs

    def owner(self, i: int, j: int) -> int:
        """Team index owning element (i, j)."""
        nb = self.block
        return ((i // nb) % self.pr) * self.pc + ((j // nb) % self.pc)

    def owner_vec(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner`."""
        nb = self.block
        return ((i // nb) % self.pr) * self.pc + ((j // nb) % self.pc)

    def my_blocks(self, team_idx: int, n: int) -> List[Tuple[int, int]]:
        """Block coordinates (bi, bj) of an n x n matrix owned by team_idx."""
        nb = self.block
        nblk = -(-n // nb)
        mine = []
        row_of = team_idx // self.pc
        col_of = team_idx % self.pc
        for bi in range(row_of, nblk, self.pr):
            for bj in range(col_of, nblk, self.pc):
                mine.append((bi, bj))
        return mine


class FrontInstance:
    """One rank's share of one distributed frontal matrix."""

    def __init__(
        self,
        sym: FrontSymbolic,
        team: List[int],
        my_world_rank: int,
        block: int = 24,
    ):
        self.sym = sym
        self.team = list(team)
        self.grid = BlockCyclic(len(team), block)
        self.my_world_rank = my_world_rank
        self.my_team_idx: Optional[int] = (
            self.team.index(my_world_rank) if my_world_rank in team else None
        )
        #: owned storage: (bi, bj) -> dense block array
        self.blocks: Dict[Tuple[int, int], np.ndarray] = {}
        # mapping: child-front-local index -> global vertex, and the
        # inverse lookup used by packing (built lazily per parent)
        self._row_indices = sym.row_indices
        self._parent_pos_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------- geometry
    @property
    def n(self) -> int:
        return self.sym.front_size

    def participating(self) -> bool:
        return self.my_team_idx is not None

    def _block_shape(self, bi: int, bj: int) -> Tuple[int, int]:
        nb = self.grid.block
        return (
            min(nb, self.n - bi * nb),
            min(nb, self.n - bj * nb),
        )

    def _get_block(self, bi: int, bj: int) -> np.ndarray:
        blk = self.blocks.get((bi, bj))
        if blk is None:
            blk = np.zeros(self._block_shape(bi, bj))
            self.blocks[(bi, bj)] = blk
        return blk

    # ------------------------------------------------------------------ fill
    def fill(self, value: float = 1.0, f22_only: bool = False) -> None:
        """Materialize owned blocks, set to ``value``.

        With ``f22_only`` only elements in the contribution-block region
        (rows and cols >= n_cols) are set; others are zero.
        """
        if not self.participating():
            return
        nc = self.sym.n_cols
        nb = self.grid.block
        for bi, bj in self.grid.my_blocks(self.my_team_idx, self.n):
            blk = self._get_block(bi, bj)
            if not f22_only:
                blk[:] = value
                continue
            i0, j0 = bi * nb, bj * nb
            ii = np.arange(i0, i0 + blk.shape[0])
            jj = np.arange(j0, j0 + blk.shape[1])
            mask = (ii[:, None] >= nc) & (jj[None, :] >= nc)
            blk[:] = 0.0
            blk[mask] = value

    # ------------------------------------------------------------- packing
    def parent_positions(self, parent: FrontSymbolic) -> np.ndarray:
        """For each of my front-local indices, the parent-front-local index
        (or -1 for my own eliminated columns, which are not sent)."""
        cached = self._parent_pos_cache.get(parent.node_id)
        if cached is not None:
            return cached
        parent_rows = parent.row_indices
        lookup = {int(g): k for k, g in enumerate(parent_rows)}
        out = np.full(self.n, -1, dtype=np.int64)
        for k in range(self.sym.n_cols, self.n):
            out[k] = lookup[int(self._row_indices[k])]
        self._parent_pos_cache[parent.node_id] = out
        return out

    def pack_for_parent(
        self,
        parent: FrontSymbolic,
        parent_team: List[int],
        parent_block: int = 24,
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Bin my F22 entries by destination parent rank.

        Returns {world_rank: (parent_i, parent_j, values)} — the paper's
        ``pack`` utility that "bins outgoing entries into sbuf".
        """
        if not self.participating():
            return {}
        nc = self.sym.n_cols
        pos = self.parent_positions(parent)
        pgrid = BlockCyclic(len(parent_team), parent_block)
        nb = self.grid.block

        pis: List[np.ndarray] = []
        pjs: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        for (bi, bj), blk in self.blocks.items():
            i0, j0 = bi * nb, bj * nb
            i1, j1 = i0 + blk.shape[0], j0 + blk.shape[1]
            if i1 <= nc or j1 <= nc:
                continue  # block entirely outside F22
            ia, ja = max(i0, nc), max(j0, nc)
            sub = blk[ia - i0 : i1 - i0, ja - j0 : j1 - j0]
            pi = pos[ia:i1]
            pj = pos[ja:j1]
            pim, pjm = np.meshgrid(pi, pj, indexing="ij")
            pis.append(pim.ravel())
            pjs.append(pjm.ravel())
            vals.append(np.ascontiguousarray(sub).ravel())
        if not pis:
            return {}
        pi = np.concatenate(pis)
        pj = np.concatenate(pjs)
        v = np.concatenate(vals)
        dest_team_idx = pgrid.owner_vec(pi, pj)

        out: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        order = np.argsort(dest_team_idx, kind="stable")
        pi, pj, v, d = pi[order], pj[order], v[order], dest_team_idx[order]
        cuts = np.flatnonzero(np.diff(d)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(d)]):
            world = parent_team[int(d[lo])]
            out[world] = (pi[lo:hi].copy(), pj[lo:hi].copy(), v[lo:hi].copy())
        return out

    # ---------------------------------------------------------- accumulate
    def accumulate(self, pi: np.ndarray, pj: np.ndarray, values: np.ndarray) -> None:
        """Scatter-add received contributions into my owned blocks."""
        if len(pi) == 0:
            return
        nb = self.grid.block
        bi = pi // nb
        bj = pj // nb
        order = np.lexsort((bj, bi))
        pi, pj, values, bi, bj = pi[order], pj[order], values[order], bi[order], bj[order]
        key = bi * (1 << 32) + bj
        cuts = np.flatnonzero(np.diff(key)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(key)]):
            blk = self._get_block(int(bi[lo]), int(bj[lo]))
            np.add.at(
                blk,
                (pi[lo:hi] - bi[lo] * nb, pj[lo:hi] - bj[lo] * nb),
                values[lo:hi],
            )

    # ------------------------------------------------------------- queries
    def dense(self) -> np.ndarray:
        """Assemble my owned entries into a full (n x n) array (tests)."""
        out = np.zeros((self.n, self.n))
        nb = self.grid.block
        for (bi, bj), blk in self.blocks.items():
            out[bi * nb : bi * nb + blk.shape[0], bj * nb : bj * nb + blk.shape[1]] = blk
        return out

    def f22_nnz_for(
        self, parent: FrontSymbolic, parent_team: List[int], parent_block: int = 24
    ) -> Dict[int, int]:
        """Per-destination entry counts (used to precompute expected RPC
        counts without packing values)."""
        packed = self.pack_for_parent(parent, parent_team, parent_block)
        return {w: len(v) for w, (_pi, _pj, v) in packed.items()}
