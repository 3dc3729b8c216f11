"""Team-parallel numeric front factorization (2-D block-cyclic).

:mod:`repro.apps.sparse.numeric` factors each front on its team's lead
rank — correct, but the serialized top separators cap strong scaling
(Amdahl along the root path).  This module removes that cap the way real
multifrontal solvers (symPACK, STRUMPACK) do: each front's dense partial
factorization runs **across its whole team** on the 2-D block-cyclic
layout of :class:`~repro.apps.sparse.frontal.FrontInstance`, with a
right-looking blocked algorithm.  For each block-column ``k`` of the
eliminated region::

    POTRF   the owner of (k,k) factors the diagonal block -> L_kk and
            sends it to the panel owners of block-column/row k;
    TRSM    panel owners compute L_ik = A_ik·L_kk^-T (and the mirrored
            row panel L_kk^-1·A_kj), then send each panel piece to the
            owners of the trailing blocks that need it;
    GEMM    every owner updates its trailing blocks
            A_ij -= L_ik · (L_kk^-1 A_kj).

All panel traffic is ``rpc_ff`` with zero-copy views; per-step promises
pre-sized from the (deterministic) block-cyclic geometry provide dataflow
synchronization — messages arriving early are cached, never lost.

Implementation notes:

- Fronts store the full symmetric square (upper mirrored): extend-add and
  indexing stay simple at 2x minimal memory; the *timing* charge uses the
  true factorization flop count.
- The eliminated region is padded to a block boundary with synthetic
  identity columns (factor of ``[[A,0],[0,I]]``), so the cols/border
  boundary always falls between blocks and every panel step is regular.
  The plan pads each front once and builds the extend-add plan
  (:func:`~repro.apps.sparse.extend_add.plan_extend_add`) over the padded
  fronts, so every rank's layout, every child rank's route into its
  parent and every expected message count come from there, computed
  before the first message, as the Fig. 8/9 sweeps read them.
- After the panels, the trailing square is the distributed Schur
  complement (value-carrying extend-add to the parent team); the factor
  panels are then gathered to the team lead so the tree-structured
  triangular solves of :mod:`numeric` apply unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

import repro.upcxx as upcxx
from repro.apps.sparse.extend_add import EaddPlan, plan_extend_add
from repro.apps.sparse.frontal import FrontInstance
from repro.apps.sparse.numeric import CholeskyPlan, a_entries, build_cholesky_plan, cholesky_solve
from repro.apps.sparse.symbolic import FrontSymbolic
from repro.upcxx.future import Promise


@dataclass
class Cholesky2DPlan(CholeskyPlan):
    """The lead-only plan (same fronts, teams, owners: the solve runs on
    it) plus the block size and the extend-add plan over the padded
    fronts, which holds every front's layout and every child rank's route."""

    block: int
    eadd: EaddPlan


def build_cholesky_2d_plan(
    nx: int, ny: int, nz: int, n_procs: int, leaf_size: int = 32, block: int = 16
) -> Cholesky2DPlan:
    base = build_cholesky_plan(nx, ny, nz, n_procs=n_procs, leaf_size=leaf_size)
    padded = {nid: _padded_symbolic(f, block) for nid, f in base.fronts.items()}
    eadd = plan_extend_add(padded, base.teams, n_procs, block)
    return Cholesky2DPlan(**vars(base), block=block, eadd=eadd)


def _padded_symbolic(sym: FrontSymbolic, block: int) -> FrontSymbolic:
    """Pad ``cols`` with synthetic (negative-id) identity columns so the
    eliminated region ends exactly at a block boundary."""
    pad = (-sym.n_cols) % block
    if pad == 0:
        return sym
    synth = np.array(
        [-(sym.node_id * 1_000_000 + t + 1) for t in range(pad)], dtype=np.int64
    )
    return FrontSymbolic(
        node_id=sym.node_id,
        cols=np.concatenate([sym.cols, synth]),
        border=sym.border,
        children=list(sym.children),
        parent=sym.parent,
    )


# --------------------------------------------------------------- per-front
class _Front2D:
    """One rank's participation in one front's team-parallel factorization."""

    def __init__(self, plan: Cholesky2DPlan, nid: int, me: int):
        self.plan = plan
        self.nid = nid
        self.me = me
        self.sym_real: FrontSymbolic = plan.fronts[nid]
        self.sym: FrontSymbolic = plan.eadd.fronts[nid]
        self.team = plan.teams[nid]
        self.inst = FrontInstance(plan.eadd.layouts[(nid, me)])
        self.grid = self.inst.layout.grid
        nb = plan.block
        assert self.sym.n_cols % nb == 0 or self.sym.front_size == self.sym.n_cols
        self.n_panels = -(-self.sym.n_cols // nb)
        self.nblk = -(-self.sym.front_size // nb)
        # dataflow state, keyed by panel step
        self.lkk: Dict[int, np.ndarray] = {}
        self.col_panels: Dict[Tuple[int, int], np.ndarray] = {}  # (k, bi) -> L_bik
        self.row_panels: Dict[Tuple[int, int], np.ndarray] = {}  # (k, bj) -> inv(Lkk)A_kbj
        self.p_lkk: Dict[int, Promise] = {}
        self.p_panels: Dict[int, Promise] = {}
        #: extend-add completion: one dep per incoming child message
        self.p_children = Promise()
        self.p_children.require_anonymous(plan.eadd.expected.get((nid, me), 0))
        self._setup_promises()

    # ------------------------------------------------------------- geometry
    def owner_block(self, bi: int, bj: int) -> int:
        """World rank owning block (bi, bj)."""
        g = self.grid
        return self.team[(bi % g.pr) * g.pc + (bj % g.pc)]

    def my_trailing_blocks(self, k: int) -> List[Tuple[int, int]]:
        return [(bi, bj) for (bi, bj) in self.inst.blocks if bi > k and bj > k]

    def my_col_panel_blocks(self, k: int) -> List[int]:
        return sorted(bi for (bi, bj) in self.inst.blocks if bj == k and bi > k)

    def my_row_panel_blocks(self, k: int) -> List[int]:
        return sorted(bj for (bi, bj) in self.inst.blocks if bi == k and bj > k)

    # ------------------------------------------------------------- promises
    def _setup_promises(self) -> None:
        """Pre-size every step's promises from the block-cyclic geometry."""
        for k in range(self.n_panels):
            diag_owner = self.owner_block(k, k)
            need_lkk = self.me != diag_owner and (
                self.my_col_panel_blocks(k) or self.my_row_panel_blocks(k)
            )
            p = Promise()
            p.require_anonymous(1 if need_lkk else 0)
            self.p_lkk[k] = p

            rows_needed = {bi for (bi, _bj) in self.my_trailing_blocks(k)}
            cols_needed = {bj for (_bi, bj) in self.my_trailing_blocks(k)}
            expected = sum(1 for bi in rows_needed if self.owner_block(bi, k) != self.me)
            expected += sum(1 for bj in cols_needed if self.owner_block(k, bj) != self.me)
            q = Promise()
            q.require_anonymous(expected)
            self.p_panels[k] = q

    # ---------------------------------------------------------- data intake
    def deliver_lkk(self, k: int, block: np.ndarray) -> None:
        self.lkk[k] = block
        self.p_lkk[k].fulfill_anonymous(1)

    def deliver_col(self, k: int, bi: int, block: np.ndarray) -> None:
        self.col_panels[(k, bi)] = block
        self.p_panels[k].fulfill_anonymous(1)

    def deliver_row(self, k: int, bj: int, block: np.ndarray) -> None:
        self.row_panels[(k, bj)] = block
        self.p_panels[k].fulfill_anonymous(1)


class _State2D:
    """Per-rank state reachable from incoming RPCs."""

    def __init__(self, plan: Cholesky2DPlan):
        self.plan = plan
        rt = upcxx.current_runtime()
        me = rt.rank
        #: the fronts whose team I am in, postorder
        self.fronts: Dict[int, _Front2D] = {
            nid: _Front2D(plan, nid, me) for nid in sorted(plan.eadd.my_front_ids(me))
        }
        #: gathered factor pieces at team leads: nid -> (L11, L21)
        self.factors: Dict[int, tuple] = {}
        #: gather promises pre-created (gather traffic can outrun the lead)
        self.p_gather: Dict[int, Promise] = {}
        self.gather_buf: Dict[int, list] = {}
        for nid, fr in self.fronts.items():
            if fr.team[0] != me:
                continue
            nb = plan.block
            ncb = -(-fr.sym.n_cols // nb)
            incoming = sum(
                1
                for bj in range(ncb)
                for bi in range(bj, fr.nblk)
                if fr.owner_block(bi, bj) != me
            )
            q = Promise()
            q.require_anonymous(incoming)
            self.p_gather[nid] = q


# ------------------------------------------------------------ RPC handlers
def _as_arr(vals) -> np.ndarray:
    return vals.to_numpy() if hasattr(vals, "to_numpy") else np.asarray(vals)


def _rpc_lkk(state_dobj, nid: int, k: int, vals) -> None:
    st: _State2D = state_dobj.value
    b = int(math.isqrt(len(vals)))
    st.fronts[nid].deliver_lkk(k, _as_arr(vals).reshape(b, b))


def _rpc_col(state_dobj, nid: int, k: int, bi: int, rows: int, vals) -> None:
    st: _State2D = state_dobj.value
    st.fronts[nid].deliver_col(k, bi, _as_arr(vals).reshape(rows, -1))


def _rpc_row(state_dobj, nid: int, k: int, bj: int, rows: int, vals) -> None:
    st: _State2D = state_dobj.value
    st.fronts[nid].deliver_row(k, bj, _as_arr(vals).reshape(rows, -1))


def _rpc_eadd(state_dobj, nid: int, pi, pj, vals) -> None:
    rt = upcxx.current_runtime()
    st: _State2D = state_dobj.value
    fr = st.fronts[nid]
    values = _as_arr(vals)
    rt.sched.charge(rt.cpu.accumulate_time(len(values)))
    fr.inst.accumulate(np.asarray(pi), np.asarray(pj), values)
    fr.p_children.fulfill_anonymous(1)


def _rpc_gather(state_dobj, nid: int, bi: int, bj: int, rows: int, vals) -> None:
    st: _State2D = state_dobj.value
    st.gather_buf.setdefault(nid, []).append((bi, bj, _as_arr(vals).reshape(rows, -1)))
    st.p_gather[nid].fulfill_anonymous(1)


# ---------------------------------------------------------------- assembly
def _assemble_a_blocks(plan: Cholesky2DPlan, fr: _Front2D) -> None:
    """Add my owned blocks' share of A into the front (symmetric full),
    plus unit diagonals for the synthetic padding columns."""
    nb = plan.block

    def add(ei: int, ej: int, v: float) -> None:
        bi, bj = ei // nb, ej // nb
        blk = fr.inst.blocks.get((bi, bj))
        if blk is not None:
            blk[ei - bi * nb, ej - bj * nb] += v

    for fi, jf, v in a_entries(plan, fr.nid, fr.sym.row_indices):
        add(fi, jf, v)
        if fi != jf:
            add(jf, fi, v)
    # synthetic identity padding
    for p in range(fr.sym_real.n_cols, fr.sym.n_cols):
        add(p, p, 1.0)


# ------------------------------------------------------------- the kernel
def _factor_front_2d(plan: Cholesky2DPlan, fr: _Front2D, state_dobj) -> None:
    """Run my part of one front's right-looking factorization."""
    from scipy.linalg import solve_triangular
    rt = upcxx.current_runtime()
    me = fr.me
    nid = fr.nid

    # flop charge: my share of the true partial-factorization cost
    rt.compute(fr.sym_real.factor_flops() / rt.cpu.flop_rate / len(fr.team))

    for k in range(fr.n_panels):
        diag_owner = fr.owner_block(k, k)

        # ---- POTRF + L_kk distribution --------------------------------
        if me == diag_owner:
            dblk = fr.inst.blocks[(k, k)]
            lkk = np.linalg.cholesky(dblk)
            dblk[:, :] = np.tril(lkk) + np.tril(lkk, -1).T  # keep symmetric
            fr.lkk[k] = lkk
            recipients = set()
            for b in range(k + 1, fr.nblk):
                recipients.add(fr.owner_block(b, k))
                recipients.add(fr.owner_block(k, b))
            recipients.discard(me)
            for dest in sorted(recipients):
                upcxx.rpc_ff(dest, _rpc_lkk, state_dobj, nid, k, upcxx.make_view(lkk.ravel()))
        else:
            # non-owners that need L_kk wait for it (0-dep promise if not)
            fr.p_lkk[k].finalize().wait()
        lkk = fr.lkk.get(k)

        # ---- TRSM my panel blocks and distribute them -------------------
        for bi in fr.my_col_panel_blocks(k):
            blk = fr.inst.blocks[(bi, k)]
            blk[:, :] = solve_triangular(lkk, blk.T, lower=True).T
            piece = blk.copy()
            fr.col_panels[(k, bi)] = piece
            dests = {fr.owner_block(bi, bj) for bj in range(k + 1, fr.nblk)} - {me}
            for dest in sorted(dests):
                upcxx.rpc_ff(
                    dest, _rpc_col, state_dobj, nid, k, bi, piece.shape[0],
                    upcxx.make_view(piece.ravel()),
                )
        for bj in fr.my_row_panel_blocks(k):
            blk = fr.inst.blocks[(k, bj)]
            blk[:, :] = solve_triangular(lkk, blk, lower=True)
            piece = blk.copy()
            fr.row_panels[(k, bj)] = piece
            dests = {fr.owner_block(bi, bj) for bi in range(k + 1, fr.nblk)} - {me}
            for dest in sorted(dests):
                upcxx.rpc_ff(
                    dest, _rpc_row, state_dobj, nid, k, bj, piece.shape[0],
                    upcxx.make_view(piece.ravel()),
                )

        # ---- wait for the panel pieces I need, then GEMM ----------------
        fr.p_panels[k].finalize().wait()
        for (bi, bj) in fr.my_trailing_blocks(k):
            li = fr.col_panels[(k, bi)]  # block-bi rows x nb
            rj = fr.row_panels[(k, bj)]  # nb x block-bj cols
            fr.inst.blocks[(bi, bj)][:, :] -= li @ rj
        for key in [key for key in fr.col_panels if key[0] == k]:
            del fr.col_panels[key]
        for key in [key for key in fr.row_panels if key[0] == k]:
            del fr.row_panels[key]
        fr.lkk.pop(k, None)


def _send_schur_to_parent(plan: Cholesky2DPlan, fr: _Front2D, state_dobj) -> None:
    """Extend-add my Schur piece into the parent team (value-carrying),
    along my route in the plan."""
    rt = upcxx.current_runtime()
    if fr.sym_real.parent == -1:
        return
    packed = fr.inst.pack(plan.eadd.routes[(fr.nid, fr.me)])
    for dest, (pi, pj, vals) in packed.items():
        rt.charge_copy(vals.nbytes)
        upcxx.rpc_ff(
            dest, _rpc_eadd, state_dobj, fr.sym_real.parent, pi, pj, upcxx.make_view(vals)
        )


def _gather_factors_to_lead(plan: Cholesky2DPlan, fr: _Front2D, st: _State2D, state_dobj) -> None:
    """Ship factor-panel blocks to the team lead, which reconstructs the
    (L11, L21) pieces for the tree-structured solves."""
    rt = upcxx.current_runtime()
    me = fr.me
    nid = fr.nid
    nb = plan.block
    nc_real = fr.sym_real.n_cols
    nc_pad = fr.sym.n_cols
    lead = fr.team[0]
    ncb = nc_pad // nb if nc_pad % nb == 0 else -(-nc_pad // nb)

    my_blocks = [
        (bi, bj, blk)
        for (bi, bj), blk in fr.inst.blocks.items()
        if bj < ncb and bi >= bj  # lower-trapezoid factor region
    ]
    if me == lead:
        p = st.p_gather[nid]
        buf = st.gather_buf.setdefault(nid, [])
        for bi, bj, blk in my_blocks:
            buf.append((bi, bj, blk.copy()))
        p.finalize().wait()
        n = fr.sym.front_size
        full = np.zeros((n, n))
        for bi, bj, blk in buf:
            full[bi * nb : bi * nb + blk.shape[0], bj * nb : bj * nb + blk.shape[1]] = blk
        l11 = np.tril(full[:nc_real, :nc_real])
        l21 = full[nc_pad:, :nc_real]
        st.factors[nid] = (l11, l21)
        del st.gather_buf[nid]
    else:
        for bi, bj, blk in my_blocks:
            rt.charge_copy(blk.nbytes)
            upcxx.rpc_ff(
                lead, _rpc_gather, state_dobj, nid, bi, bj, blk.shape[0],
                upcxx.make_view(np.ascontiguousarray(blk).ravel()),
            )


# ------------------------------------------------------------------ driver
def cholesky_factor_2d(plan: Cholesky2DPlan) -> _State2D:
    """Team-parallel numeric factorization (call on every rank).

    Returns this rank's state, whose ``factors`` live on each front's team
    lead, so :func:`repro.apps.sparse.numeric.cholesky_solve` applies
    unchanged.
    """
    st = _State2D(plan)
    state_dobj = upcxx.DistObject(st)
    upcxx.barrier()

    for fr in st.fronts.values():
        # (1) wait for all children's extend-add contributions to my blocks
        fr.p_children.finalize().wait()
        # (2) assemble my share of A (plus padding identities)
        _assemble_a_blocks(plan, fr)
        # (3) team-parallel partial factorization
        _factor_front_2d(plan, fr, state_dobj)
        # (4) extend-add my Schur piece to the parent team
        _send_schur_to_parent(plan, fr, state_dobj)
        # (5) gather factors to the lead for the solve phase
        _gather_factors_to_lead(plan, fr, st, state_dobj)

    upcxx.barrier()
    return st


def factor_and_solve_2d(plan: Cholesky2DPlan, b: np.ndarray) -> np.ndarray:
    """Team-parallel factorization + tree-structured solve."""
    return cholesky_solve(plan, cholesky_factor_2d(plan), b)
