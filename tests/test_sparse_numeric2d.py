"""Tests for the team-parallel (2-D block-cyclic) numeric factorization."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.upcxx as upcxx
from repro.apps.sparse.frontal import FrontLayout
from repro.apps.sparse.numeric import build_cholesky_plan, factor_and_solve
from repro.apps.sparse.numeric2d import (
    build_cholesky_2d_plan,
    cholesky_factor_2d,
    factor_and_solve_2d,
)


def _solve(plan, b, n_procs):
    res = upcxx.run_spmd(lambda: factor_and_solve_2d(plan, b), n_procs, max_time=1e7)
    for r in res[1:]:
        assert np.allclose(res[0], r)
    return res[0]


class TestFactor2D:
    @pytest.mark.parametrize("n_procs,block", [(1, 8), (2, 8), (4, 4), (4, 16)])
    def test_solves_laplacian(self, n_procs, block):
        plan = build_cholesky_2d_plan(4, 4, 3, n_procs=n_procs, leaf_size=8, block=block)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(plan.n)
        x = _solve(plan, b, n_procs)
        ref = spla.spsolve(sp.csc_matrix(plan.a), b)
        assert np.allclose(x, ref, atol=1e-8), f"max err {np.abs(x - ref).max()}"

    def test_block_not_dividing_separators(self):
        """Separator sizes rarely align with the block size: the padding
        path must keep the answer exact."""
        plan = build_cholesky_2d_plan(5, 4, 3, n_procs=4, leaf_size=10, block=7)
        b = np.arange(plan.n, dtype=float)
        x = _solve(plan, b, 4)
        r = plan.a @ x - b
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-10

    def test_larger_grid(self):
        plan = build_cholesky_2d_plan(6, 6, 4, n_procs=8, leaf_size=20, block=8)
        rng = np.random.default_rng(17)
        b = rng.standard_normal(plan.n)
        x = _solve(plan, b, 8)
        ref = spla.spsolve(sp.csc_matrix(plan.a), b)
        assert np.allclose(x, ref, atol=1e-7)

    def test_matches_lead_only_solver(self):
        """Same system: team-parallel and lead-only answers must agree."""
        grid = (4, 4, 2)
        b = np.linspace(-1, 1, 32)
        plan1 = build_cholesky_plan(*grid, n_procs=4, leaf_size=8)
        plan2 = build_cholesky_2d_plan(*grid, n_procs=4, leaf_size=8, block=8)
        x1 = upcxx.run_spmd(lambda: factor_and_solve(plan1, b), 4, max_time=1e7)[0]
        x2 = _solve(plan2, b, 4)
        assert np.allclose(x1, x2, atol=1e-9)

    def test_factor_pieces_on_leads(self):
        plan = build_cholesky_2d_plan(4, 3, 2, n_procs=4, leaf_size=8, block=8)
        collected = {}

        def body():
            state = cholesky_factor_2d(plan)
            collected[upcxx.rank_me()] = set(state.factors)
            upcxx.barrier()

        upcxx.run_spmd(body, 4, max_time=1e7)
        # every front's factor lives exactly on its team lead
        for nid, lead in plan.owner.items():
            assert nid in collected[lead]
            for r, owned in collected.items():
                if r != lead:
                    assert nid not in owned

    def test_deterministic(self):
        plan = build_cholesky_2d_plan(4, 4, 2, n_procs=4, leaf_size=8, block=8)
        b = np.ones(plan.n)
        assert np.array_equal(_solve(plan, b, 4), _solve(plan, b, 4))

    def test_team_parallel_beats_lead_only_on_large_fronts(self):
        """The point of 2-D fronts: for fronts big enough that flops (n^3)
        dominate panel traffic (n^2), the team-parallel factorization beats
        the lead-only one.  A huge leaf_size makes the whole 8x8x8 domain a
        single dense front of 512 columns — the pure dense-kernel case.
        (At toy front sizes the lead-only variant legitimately wins, which
        is why real solvers only switch to 2-D fronts above a size cutoff.)
        """
        grid = (8, 8, 8)
        b = np.ones(512)
        times = {}
        for label, plan, runner in (
            ("lead", build_cholesky_plan(*grid, n_procs=8, leaf_size=10_000),
             factor_and_solve),
            ("2d", build_cholesky_2d_plan(*grid, n_procs=8, leaf_size=10_000, block=64),
             factor_and_solve_2d),
        ):
            out = {}

            def body(plan=plan, runner=runner):
                upcxx.barrier()
                t0 = upcxx.sim_now()
                x = runner(plan, b)
                upcxx.barrier()
                out["t"] = upcxx.sim_now() - t0
                out["x"] = x

            upcxx.run_spmd(body, 8, max_time=1e7)
            times[label] = out["t"]
            # same (correct) answer from both
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla

            assert np.allclose(out["x"], spla.spsolve(sp.csc_matrix(plan.a), b), atol=1e-7)
        assert times["2d"] < times["lead"]


def test_a_factorization_computes_no_layout_or_route(monkeypatch):
    """Every layout and route of the 2-D factorization comes from its plan:
    the numeric phase builds no FrontLayout and routes nothing."""
    plan = build_cholesky_2d_plan(8, 8, 6, n_procs=16)
    calls = {"__init__": 0, "route": 0}
    for name in calls:
        real = getattr(FrontLayout, name)

        def counted(*args, _name=name, _real=real, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(FrontLayout, name, counted)
    upcxx.run_spmd(lambda: cholesky_factor_2d(plan), 16, max_time=1e7)
    assert calls == {"__init__": 0, "route": 0}
