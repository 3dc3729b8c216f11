"""Distributed frontal matrices: 2-D block-cyclic layout and local storage.

Each front is distributed over its team in a 2-D block-cyclic manner with a
fixed block size (paper §IV-D: "frontal matrices are then distributed in a
2D block-cyclic manner with a fixed block size among processes of each
group").  A rank stores its share as one local 2-D array, as ScaLAPACK and
STRUMPACK do: the owned rows by the owned columns, so per-rank memory is
front_size²/P — the scalable layout extend-add must route into.

All index math is whole-array numpy: packing produces, per destination
rank, numpy arrays of (parent-local row, parent-local col, value) triples;
the wire carries the values as a zero-copy view plus the two index arrays.
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


def positions(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The index in ``rows`` (distinct global ids, any order) of each of
    ``ids``; ``KeyError`` names the first id ``rows`` lacks."""
    order = np.argsort(rows)
    out = order[np.searchsorted(rows, ids, sorter=order).clip(max=len(rows) - 1)]
    missing = rows[out] != ids
    if missing.any():
        raise KeyError(int(ids[missing][0]))
    return out


def _route(owned: np.ndarray, nc: int, pos: np.ndarray, block: int, nprocs: int):
    """The F22 part of one owned axis, stably sorted by the parent process
    coordinate it routes to: local indices, parent positions, and a
    (coordinate, slice) per coordinate that receives any."""
    lo = int(np.searchsorted(owned, nc))
    ppos = pos[owned[lo:]]
    dest = (ppos // block) % nprocs
    order = np.argsort(dest, kind="stable")
    cut = [0] + np.cumsum(np.bincount(dest, minlength=nprocs)).tolist()
    spans = [(d, slice(cut[d], cut[d + 1])) for d in range(nprocs) if cut[d + 1] > cut[d]]
    return lo + order, ppos[order], spans


class FrontInstance:
    """One rank's share of one distributed frontal matrix.

    ``local`` holds the owned rows (global indices ``grow``, ascending) by
    the owned columns (``gcol``); ``blocks`` maps each owned block
    (bi, bj), in :meth:`BlockCyclic.my_blocks` order, to its view of
    ``local``.
    """

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
        g, n = self.grid, self.n
        prow, pcol = (-1, -1) if self.my_team_idx is None else divmod(self.my_team_idx, g.pc)
        blk_of = np.arange(n) // block
        self.grow = np.flatnonzero(blk_of % g.pr == prow)
        self.gcol = np.flatnonzero(blk_of % g.pc == pcol)
        #: inverse maps: global index -> local row / col, -1 where not owned
        self.lrow = np.full(n, -1, dtype=np.int64)
        self.lrow[self.grow] = np.arange(len(self.grow))
        self.lcol = np.full(n, -1, dtype=np.int64)
        self.lcol[self.gcol] = np.arange(len(self.gcol))
        self.local = np.zeros((len(self.grow), len(self.gcol)))
        self.blocks: Dict[Tuple[int, int], np.ndarray] = {}
        for bi, bj in g.my_blocks(self.my_team_idx, n) if prow >= 0 else ():
            r, c = bi // g.pr * block, bj // g.pc * block
            self.blocks[(bi, bj)] = self.local[r : r + block, c : c + block]
        self._parent_pos_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------- geometry
    @property
    def n(self) -> int:
        return self.sym.front_size

    # ------------------------------------------------------------------ fill
    def fill(self, value: float = 1.0, f22_only: bool = False) -> None:
        """Set every owned element to ``value``.

        With ``f22_only`` only elements in the contribution-block region
        (rows and cols >= n_cols) are set; others are zero.
        """
        if not f22_only:
            self.local[:] = value
            return
        nc = self.sym.n_cols
        self.local[:] = 0.0
        self.local[np.searchsorted(self.grow, nc) :, np.searchsorted(self.gcol, nc) :] = value

    # ------------------------------------------------------------- packing
    def parent_positions(self, parent: FrontSymbolic) -> np.ndarray:
        """For each of my front-local indices, the parent-front-local index
        (or -1 for my own eliminated columns, which are not sent)."""
        cached = self._parent_pos_cache.get(parent.node_id)
        if cached is not None:
            return cached
        out = np.full(self.n, -1, dtype=np.int64)
        out[self.sym.n_cols :] = positions(parent.row_indices, self.sym.border)
        self._parent_pos_cache[parent.node_id] = out
        return out

    def _bins(self, parent: FrontSymbolic, parent_team: List[int], parent_block: int):
        """My F22 rows and cols, each routed by :func:`_route`, and one
        (world rank, row slice, col slice) of them per receiving parent
        rank, in ascending parent-team order."""
        pos = self.parent_positions(parent)
        pgrid = BlockCyclic(len(parent_team), parent_block)
        nc = self.sym.n_cols
        rows = _route(self.grow, nc, pos, parent_block, pgrid.pr)
        cols = _route(self.gcol, nc, pos, parent_block, pgrid.pc)
        bins = [
            (parent_team[dr * pgrid.pc + dc], rs, cs) for dr, rs in rows[2] for dc, cs in cols[2]
        ]
        return rows, cols, bins

    def pack_for_parent(
        self,
        parent: FrontSymbolic,
        parent_team: List[int],
        parent_block: int = 24,
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Bin my F22 entries by destination parent rank.

        Returns {world_rank: (parent_i, parent_j, values)} in ascending
        parent-team order — the paper's ``pack`` utility that "bins outgoing
        entries into sbuf".  The values are a fresh gather, never a view of
        ``local``.
        """
        (lr, pr, _), (lc, pc, _), bins = self._bins(parent, parent_team, parent_block)
        sub = self.local[np.ix_(lr, lc)]
        return {
            world: (
                np.repeat(pr[rs], cs.stop - cs.start),
                np.tile(pc[cs], rs.stop - rs.start),
                sub[rs, cs].ravel(),
            )
            for world, rs, cs in bins
        }

    # ---------------------------------------------------------- accumulate
    def accumulate(self, pi: np.ndarray, pj: np.ndarray, values: np.ndarray) -> None:
        """Scatter-add received contributions into my local array.  Each
        element receives its contributions in input order; one outside my
        owned blocks raises ``ValueError``."""
        li, lj = self.lrow[pi], self.lcol[pj]
        if (li < 0).any() or (lj < 0).any():
            raise ValueError(f"contribution outside rank {self.my_world_rank}'s blocks")
        # a view of a received frame can be unaligned, and np.add.at then
        # takes a ~30x slower per-element path: copy it aligned first
        values = np.require(values, requirements="A")
        np.add.at(self.local.reshape(-1), li * self.local.shape[1] + lj, values)

    # ------------------------------------------------------------- queries
    def dense(self) -> np.ndarray:
        """Assemble my owned entries into a full (n x n) array (tests)."""
        out = np.zeros((self.n, self.n))
        out[np.ix_(self.grow, self.gcol)] = self.local
        return out

    def f22_nnz_for(
        self, parent: FrontSymbolic, parent_team: List[int], parent_block: int = 24
    ) -> Dict[int, int]:
        """Per-destination entry counts of :meth:`pack_for_parent`, from the
        row and column split sizes alone."""
        _rows, _cols, bins = self._bins(parent, parent_team, parent_block)
        return {world: (rs.stop - rs.start) * (cs.stop - cs.start) for world, rs, cs in bins}
