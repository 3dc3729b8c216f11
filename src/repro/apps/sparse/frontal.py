"""Distributed frontal matrices: 2-D block-cyclic layout and local storage.

Each front is distributed over its team in a 2-D block-cyclic manner with a
fixed block size (paper §IV-D: "frontal matrices are then distributed in a
2D block-cyclic manner with a fixed block size among processes of each
group").  A rank stores its share as one local 2-D array, as ScaLAPACK and
STRUMPACK do: the owned rows by the owned columns, so per-rank memory is
front_size²/P — the scalable layout extend-add must route into.

Index work and data movement are kept apart.  A :class:`FrontLayout`
(a rank's owned rows and cols of one front, and their inverse maps) and a
:class:`Route` (where that rank's contribution block lands in the parent:
local rows and cols in routing order, their parent coordinates, and one
row slice by col slice per destination rank) depend only on the symbolic
structure, so the extend-add plan
(:func:`repro.apps.sparse.extend_add.plan_extend_add`) builds every one
once, for the Fig. 8/9 sweeps and the 2-D Cholesky alike.  A
:class:`FrontInstance` is a layout plus its ``local`` array, and a sweep
or a factorization only moves data through it:
:meth:`FrontInstance.pack` is one gather sliced per destination into
(parent-local row, parent-local col, value) triples, and
:meth:`FrontInstance.accumulate` one scatter-add per received message.
The wire carries the values as a zero-copy view plus the two index arrays.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

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


def to_parent(child: FrontSymbolic, parent: FrontSymbolic) -> np.ndarray:
    """For each of the child's front-local indices, the parent-front-local
    index (-1 for the child's own eliminated columns, which are not sent)."""
    out = np.full(child.front_size, -1, dtype=np.int64)
    out[child.n_cols :] = positions(parent.row_indices, child.border)
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
    return _frozen(lo + order), _frozen(ppos[order]), spans


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Route(NamedTuple):
    """Where one rank's share of a child front's F22 lands in the parent.

    ``rows``/``cols`` are my local F22 rows and cols, each stably sorted by
    the parent process row / col it routes to, and ``prow``/``pcol`` their
    parent-front coordinates in the same order; ``bins`` holds one
    (world rank, row slice, col slice) per receiving parent rank, in
    ascending parent-team order.  The slices index ``rows``/``prow`` and
    ``cols``/``pcol``; the arrays are read-only.
    """

    rows: np.ndarray
    prow: np.ndarray
    cols: np.ndarray
    pcol: np.ndarray
    bins: List[Tuple[int, slice, slice]]

    def counts(self) -> Dict[int, int]:
        """Entries per destination world rank, from the slice sizes alone."""
        return {world: (rs.stop - rs.start) * (cs.stop - cs.start) for world, rs, cs in self.bins}


class FrontLayout:
    """One rank's place in one distributed front (read-only).

    ``grow``/``gcol`` are the owned rows and cols (global front-local
    indices, ascending); ``lrow``/``lcol`` map a front-local index to its
    local row / col, -1 where not owned.  A rank outside ``team`` owns
    nothing.
    """

    def __init__(self, sym: FrontSymbolic, team: List[int], my_world_rank: int, block: int = 24):
        self.sym = sym
        self.grid = g = BlockCyclic(len(team), block)
        self.my_world_rank = my_world_rank
        self.my_team_idx: Optional[int] = (
            team.index(my_world_rank) if my_world_rank in team else None
        )
        n = sym.front_size
        prow, pcol = (-1, -1) if self.my_team_idx is None else divmod(self.my_team_idx, g.pc)
        blk_of = np.arange(n) // block
        self.grow = _frozen(np.flatnonzero(blk_of % g.pr == prow))
        self.gcol = _frozen(np.flatnonzero(blk_of % g.pc == pcol))
        self.lrow = np.full(n, -1, dtype=np.int64)
        self.lrow[self.grow] = np.arange(len(self.grow))
        self.lcol = np.full(n, -1, dtype=np.int64)
        self.lcol[self.gcol] = np.arange(len(self.gcol))
        _frozen(self.lrow)
        _frozen(self.lcol)

    def route(self, pos: np.ndarray, parent_team: List[int], parent_block: int) -> Route:
        """Route my F22 into a parent front distributed over
        ``parent_team``; ``pos`` is :func:`to_parent` of my front."""
        pgrid = BlockCyclic(len(parent_team), parent_block)
        nc = self.sym.n_cols
        rows, prow, row_spans = _route(self.grow, nc, pos, parent_block, pgrid.pr)
        cols, pcol, col_spans = _route(self.gcol, nc, pos, parent_block, pgrid.pc)
        bins = [
            (parent_team[dr * pgrid.pc + dc], rs, cs) for dr, rs in row_spans for dc, cs in col_spans
        ]
        return Route(rows, prow, cols, pcol, bins)


class FrontInstance:
    """One rank's share of one distributed frontal matrix: a
    :class:`FrontLayout` (shared, not copied) plus ``local``, the owned
    rows by the owned columns, zero at construction.  ``blocks`` maps each
    owned block (bi, bj), in :meth:`BlockCyclic.my_blocks` order, to its
    view of ``local``.
    """

    def __init__(self, layout: FrontLayout):
        self.layout = layout
        self.local = np.zeros((len(layout.grow), len(layout.gcol)))

    @cached_property
    def blocks(self) -> Dict[Tuple[int, int], np.ndarray]:
        """Built on first access (only the numeric factorization reads it)."""
        lay = self.layout
        g, me = lay.grid, lay.my_team_idx
        nb = g.block
        blocks = {}
        for bi, bj in g.my_blocks(me, lay.sym.front_size) if me is not None else ():
            r, c = bi // g.pr * nb, bj // g.pc * nb
            blocks[(bi, bj)] = self.local[r : r + nb, c : c + nb]
        return blocks

    def fill(self) -> None:
        """Set my owned contribution-block elements (rows and cols >=
        n_cols) to one and every other owned element to zero."""
        lay = self.layout
        nc = lay.sym.n_cols
        self.local[:] = 0.0
        self.local[np.searchsorted(lay.grow, nc) :, np.searchsorted(lay.gcol, nc) :] = 1.0

    def pack(self, route: Route) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Bin my F22 entries by destination along ``route``.

        Returns {world_rank: (parent_i, parent_j, values)} in ascending
        parent-team order — the paper's ``pack`` utility that "bins outgoing
        entries into sbuf".  Every array is fresh, never a view of
        ``local`` or of the route.
        """
        # my F22 in routing order: two takes gather what np.ix_ would,
        # without its broadcast fancy index
        sub = self.local.take(route.rows, 0).take(route.cols, 1)
        prow, pcol = route.prow, route.pcol
        packed = {}
        for world, rs, cs in route.bins:
            nr, nc = rs.stop - rs.start, cs.stop - cs.start
            packed[world] = (
                np.repeat(prow[rs], nc),
                np.broadcast_to(pcol[cs], (nr, nc)).flatten(),
                sub[rs, cs].ravel(),
            )
        return packed

    def accumulate(self, pi: np.ndarray, pj: np.ndarray, values: np.ndarray) -> None:
        """Scatter-add received contributions into my local array.  Each
        element receives its contributions in input order (a merged
        payload may repeat an element); one outside my owned blocks raises
        ``ValueError``."""
        lay = self.layout
        flat = lay.lrow[pi]
        lj = lay.lcol[pj]
        if len(flat) and (flat.min() < 0 or lj.min() < 0):
            raise ValueError(f"contribution outside rank {lay.my_world_rank}'s blocks")
        flat *= self.local.shape[1]
        flat += lj
        # a view of a received frame can be unaligned, and np.add.at then
        # takes a ~30x slower per-element path: copy it aligned first
        values = np.require(values, requirements="A")
        np.add.at(self.local.reshape(-1), flat, values)

    def dense(self) -> np.ndarray:
        """Assemble my owned entries into a full (n x n) array (tests)."""
        n = self.layout.sym.front_size
        out = np.zeros((n, n))
        out[np.ix_(self.layout.grow, self.layout.gcol)] = self.local
        return out
