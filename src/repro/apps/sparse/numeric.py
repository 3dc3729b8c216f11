"""Numeric distributed multifrontal Cholesky (and triangular solves).

Where :mod:`repro.apps.sparse.sympack` charges *time* for the paper's
Fig. 9 skeleton, this module does the actual **mathematics**: it
factorizes A = L·Lᵀ (under the nested-dissection permutation) with a
tree-parallel multifrontal algorithm over UPC++, then solves A·x = b with
distributed forward/backward substitution along the same tree.

Parallel structure: every front is owned by the lead rank of its
proportional-mapping team, so disjoint subtrees factor concurrently and
contribution blocks travel by RPC (zero-copy views of the packed Schur
complements), exactly the communication motif of §IV-D — but carrying
real numbers whose correctness the test suite verifies against dense
Cholesky and ``scipy.sparse.linalg.spsolve``.

Per front F (cols = eliminated columns, border = update rows):

1. assemble the symmetric dense front from A's entries;
2. extend-add the children's Schur complements;
3. partial factorization::

       F11 = L11·L11ᵀ          (dense Cholesky)
       L21 = F21·L11⁻ᵀ         (triangular solve)
       S   = F22 − L21·L21ᵀ    (Schur complement)

4. ship S to the parent's owner.

The solve phase walks the tree twice: leaves→root for L·y = b (each front
eliminates its columns and pushes updates of y at its border to the
ancestors' owners) and root→leaves for Lᵀ·x = y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

import numpy as np

import repro.upcxx as upcxx
from repro.apps.sparse.frontal import positions
from repro.apps.sparse.ordering import nested_dissection_3d
from repro.apps.sparse.propmap import proportional_mapping
from repro.apps.sparse.symbolic import FrontSymbolic, symbolic_from_dissection
from repro.upcxx.future import Promise

if TYPE_CHECKING:  # SciPy loads where a matrix is built
    import scipy.sparse as sp


@dataclass
class CholeskyPlan:
    """Symbolic plan for a numeric factorization (shared, read-only): the
    fronts, their proportional-mapping teams, and each front's owner."""

    a: sp.csr_matrix
    fronts: Dict[int, FrontSymbolic]
    #: world ranks per front (proportional mapping)
    teams: Dict[int, List[int]]
    #: owning rank per front (team lead of the proportional mapping)
    owner: Dict[int, int]
    #: global vertex -> elimination position
    elim_pos: np.ndarray
    n_procs: int

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def my_fronts(self, rank: int) -> List[int]:
        return [nid for nid in sorted(self.fronts) if self.owner[nid] == rank]


def build_cholesky_plan(nx: int, ny: int, nz: int, n_procs: int, leaf_size: int = 32) -> CholeskyPlan:
    """Symbolic phase: dissect, analyze, and map front owners."""
    import scipy.sparse as sp
    from repro.apps.sparse.matrices import laplacian_3d

    a = laplacian_3d(nx, ny, nz)
    root, perm = nested_dissection_3d(nx, ny, nz, leaf_size=leaf_size)
    # perm lists the vertices in elimination order (the tree's postorder)
    elim_pos = np.empty(len(perm), dtype=np.int64)
    elim_pos[perm] = np.arange(len(perm))
    fronts = symbolic_from_dissection(a, root, elim_pos=elim_pos)
    teams = proportional_mapping(fronts, n_procs)
    owner = {nid: team[0] for nid, team in teams.items()}
    return CholeskyPlan(
        a=sp.csr_matrix(a), fronts=fronts, teams=teams, owner=owner, elim_pos=elim_pos, n_procs=n_procs
    )


# ---------------------------------------------------------------- factorize
class _FactorState:
    """Per-rank numeric state reachable from incoming RPCs."""

    def __init__(self, plan: CholeskyPlan):
        self.plan = plan
        rt = upcxx.current_runtime()
        me = rt.rank
        #: assembled dense fronts I own (created lazily)
        self.front_mats: Dict[int, np.ndarray] = {}
        #: factor pieces I produced: nid -> (L11, L21)
        self.factors: Dict[int, tuple] = {}
        #: completion promise per owned front: one dep per child contribution
        self.promises: Dict[int, Promise] = {}
        for nid in plan.my_fronts(me):
            p = Promise()
            p.require_anonymous(len(plan.fronts[nid].children))
            self.promises[nid] = p

    def front_matrix(self, nid: int) -> np.ndarray:
        mat = self.front_mats.get(nid)
        if mat is None:
            f = self.plan.fronts[nid]
            n = f.front_size
            mat = np.zeros((n, n))
            self.front_mats[nid] = mat
        return mat


def a_entries(plan: CholeskyPlan, nid: int, rows: np.ndarray) -> Iterator[Tuple[int, int, float]]:
    """A's entries assembled at front ``nid``, each once, as front-local
    (i, j, value) with ``rows`` the front's row ids (padded or not).

    Multifrontal convention: each nonzero A[i, j] is assembled exactly once,
    at the unique front whose column set contains the earlier-eliminated of
    i and j; of a pair inside the front only the lower triangle in
    elimination order is yielded.
    """
    f = plan.fronts[nid]
    pos_in_front = {int(g): k for k, g in enumerate(rows)}
    a = plan.a
    col_set = set(f.cols.tolist())
    for j in f.cols:
        jf = pos_in_front[int(j)]
        pj = plan.elim_pos[j]
        for p in range(a.indptr[j], a.indptr[j + 1]):
            i = a.indices[p]
            if plan.elim_pos[i] < pj and int(i) in col_set:
                continue  # the symmetric partner handles it
            fi = pos_in_front.get(int(i))
            if fi is None:
                continue  # eliminated in a descendant: assembled there
            yield fi, jf, a.data[p]


def _assemble_a(plan: CholeskyPlan, nid: int, mat: np.ndarray) -> None:
    """Add A's entries into the front (original-matrix part of assembly)."""
    for fi, jf, v in a_entries(plan, nid, plan.fronts[nid].row_indices):
        mat[fi, jf] += v
    # mirror to the full symmetric front (we keep fronts dense-symmetric)
    low = np.tril(mat, -1)
    mat += low.T - np.triu(mat, 1)


def _accum_schur(state_dobj: upcxx.DistObject, pid: int, idx, vals) -> None:
    """RPC body: extend-add a child's packed Schur complement."""
    rt = upcxx.current_runtime()
    state: _FactorState = state_dobj.value
    f = state.plan.fronts[pid]
    mat = state.front_matrix(pid)
    index = np.asarray(idx)
    values = vals.to_numpy() if hasattr(vals, "to_numpy") else np.asarray(vals)
    b = len(index)
    rt.sched.charge(rt.cpu.accumulate_time(b * b))
    mat[np.ix_(index, index)] += values.reshape(b, b)
    state.promises[pid].fulfill_anonymous(1)


def cholesky_factor(plan: CholeskyPlan) -> _FactorState:
    """Run the distributed numeric factorization (call on every rank).

    Returns this rank's :class:`_FactorState` holding its factor pieces.
    """
    rt = upcxx.current_runtime()
    me = rt.rank
    state = _FactorState(plan)
    state_dobj = upcxx.DistObject(state)
    upcxx.barrier()

    for nid in plan.my_fronts(me):
        f = plan.fronts[nid]
        # wait for all children's Schur complements (remote or local)
        state.promises[nid].finalize().wait()
        mat = state.front_matrix(nid)
        _assemble_a(plan, nid, mat)

        nc = f.n_cols
        f11 = mat[:nc, :nc]
        f21 = mat[nc:, :nc]
        f22 = mat[nc:, nc:]
        rt.compute(f.factor_flops() / rt.cpu.flop_rate)
        l11 = np.linalg.cholesky(f11)
        l21 = _solve_lower_t(l11, f21)
        schur = f22 - l21 @ l21.T
        state.factors[nid] = (l11, l21)
        del state.front_mats[nid]  # the front is consumed

        if f.parent != -1:
            parent = plan.fronts[f.parent]
            parent_owner = plan.owner[f.parent]
            idx = positions(parent.row_indices, f.border)
            rt.charge_copy(schur.nbytes)
            upcxx.rpc(
                parent_owner, _accum_schur, state_dobj, f.parent, idx, upcxx.make_view(schur.ravel())
            ).wait()

    upcxx.barrier()
    return state


def _solve_lower_t(l11: np.ndarray, f21: np.ndarray) -> np.ndarray:
    """L21 = F21 · L11⁻ᵀ  (solve L11 · X = F21ᵀ, transpose back)."""
    from scipy.linalg import solve_triangular

    return solve_triangular(l11, f21.T, lower=True).T


# -------------------------------------------------------------------- solve
class _SolveState:
    """Per-rank state for the two triangular sweeps."""

    def __init__(self, plan: CholeskyPlan, b: np.ndarray):
        self.plan = plan
        rt = upcxx.current_runtime()
        me = rt.rank
        #: right-hand-side slices for fronts I own (updated by children)
        self.rhs: Dict[int, np.ndarray] = {}
        #: solution pieces: global vertex -> value
        self.x: Dict[int, float] = {}
        self.fwd_promises: Dict[int, Promise] = {}
        self.bwd_promises: Dict[int, Promise] = {}
        for nid in plan.my_fronts(me):
            f = plan.fronts[nid]
            # cols carry b; border slots are pure accumulators for updates
            # pushed up by descendants (b at those vertices belongs to the
            # fronts that eliminate them)
            self.rhs[nid] = np.concatenate(
                [b[f.cols].astype(float), np.zeros(f.n_border)]
            )
            p = Promise()
            p.require_anonymous(len(f.children))
            self.fwd_promises[nid] = p
            q = Promise()
            q.require_anonymous(0 if f.parent == -1 else 1)
            self.bwd_promises[nid] = q


def _fwd_update(state_dobj: upcxx.DistObject, pid: int, idx, vals) -> None:
    """RPC body: child pushes its border's partial y-updates to the parent."""
    state: _SolveState = state_dobj.value
    index = np.asarray(idx)
    values = vals.to_numpy() if hasattr(vals, "to_numpy") else np.asarray(vals)
    state.rhs[pid][index] += values
    state.fwd_promises[pid].fulfill_anonymous(1)


def _bwd_deliver(state_dobj: upcxx.DistObject, nid: int, vals) -> None:
    """RPC body: parent delivers x values at this front's border."""
    state: _SolveState = state_dobj.value
    values = vals.to_numpy() if hasattr(vals, "to_numpy") else np.asarray(vals)
    f = state.plan.fronts[nid]
    rhs = state.rhs[nid]
    nc = f.n_cols
    rhs[nc:] = values  # border slots now hold x at the border
    state.bwd_promises[nid].fulfill_anonymous(1)


def cholesky_solve(plan: CholeskyPlan, factor, b: np.ndarray) -> np.ndarray:
    """Distributed L·Lᵀ solve; returns the full x on every rank.

    ``factor`` is this rank's factorization state; only its ``factors``
    ({front: (L11, L21)} for the fronts ``plan`` says this rank owns) are
    read.
    """
    rt = upcxx.current_runtime()
    me = rt.rank
    state = _SolveState(plan, np.asarray(b, dtype=float))
    state_dobj = upcxx.DistObject(state)
    upcxx.barrier()

    # ---------------- forward sweep: L y = b (leaves -> root) ------------
    for nid in plan.my_fronts(me):
        f = plan.fronts[nid]
        state.fwd_promises[nid].finalize().wait()
        l11, l21 = factor.factors[nid]
        rhs = state.rhs[nid]
        nc = f.n_cols
        from scipy.linalg import solve_triangular

        y1 = solve_triangular(l11, rhs[:nc], lower=True)
        rhs[:nc] = y1
        if f.parent != -1:
            # outgoing update: what descendants accumulated here, minus my
            # own elimination's contribution (length n_border, possibly 0)
            update = rhs[nc:] - (l21 @ y1)
            idx = positions(plan.fronts[f.parent].row_indices, f.border)
            upcxx.rpc(
                plan.owner[f.parent], _fwd_update, state_dobj, f.parent, idx, upcxx.make_view(update)
            ).wait()

    upcxx.barrier()

    # --------------- backward sweep: Lᵀ x = y (root -> leaves) -----------
    for nid in reversed(plan.my_fronts(me)):
        f = plan.fronts[nid]
        state.bwd_promises[nid].finalize().wait()
        l11, l21 = factor.factors[nid]
        rhs = state.rhs[nid]
        nc = f.n_cols
        from scipy.linalg import solve_triangular

        y1 = rhs[:nc].copy()
        if f.n_border:
            y1 -= l21.T @ rhs[nc:]
        x1 = solve_triangular(l11.T, y1, lower=False)
        rhs[:nc] = x1
        for g, v in zip(f.cols, x1):
            state.x[int(g)] = float(v)
        # deliver border x values to each child's owner
        for cid in f.children:
            idx = positions(f.row_indices, plan.fronts[cid].border)
            upcxx.rpc(
                plan.owner[cid], _bwd_deliver, state_dobj, cid, upcxx.make_view(rhs[idx])
            ).wait()

    upcxx.barrier()
    # ------------------- gather the distributed x everywhere -------------
    pieces = upcxx.reduce_all(state.x, lambda a, c: {**a, **c}).wait()
    upcxx.barrier()
    x = np.empty(plan.n)
    for g, v in pieces.items():
        x[g] = v
    return x


def factor_and_solve(plan: CholeskyPlan, b: np.ndarray) -> np.ndarray:
    """Convenience: factorize then solve (call on every rank)."""
    state = cholesky_factor(plan)
    return cholesky_solve(plan, state, b)
