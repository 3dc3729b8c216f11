"""End-to-end extend-add tests: all three variants against a dense serial
reference, plus the v0.1 emulation layer; the plan's layouts and routes
are its own, and no sweep changes them or loads SciPy."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.apps.sparse.extend_add import (
    EaddPlan,
    build_eadd_plan,
    mpi_eadd_run,
    serial_eadd_reference,
    upcxx_eadd_run,
    _build_instances,
)
from repro.mpisim import run_mpi
from tests import golden


@pytest.fixture(scope="module")
def small_plan():
    return build_eadd_plan(4, 4, 3, n_procs=4, leaf_size=6, block=4)


class TestPlan:
    def test_plan_counts(self, small_plan):
        assert small_plan.parents
        assert small_plan.total_entries > 0
        # expected counts exist for all (parent, team member) pairs
        for pid in small_plan.parents:
            for r in small_plan.teams[pid]:
                assert (pid, r) in small_plan.expected

    def test_instances_cover_all_blocks(self, small_plan):
        for nid, team in small_plan.teams.items():
            n = small_plan.fronts[nid].front_size
            got = np.zeros((n, n))
            for r in team:
                inst = _build_instances(small_plan, r)[nid]
                got += np.ones_like(inst.dense()) * 0  # shape check only
                for (bi, bj), blk in inst.blocks.items():
                    got[
                        bi * inst.layout.grid.block : bi * inst.layout.grid.block + blk.shape[0],
                        bj * inst.layout.grid.block : bj * inst.layout.grid.block + blk.shape[1],
                    ] += 1
            assert np.all(got == 1), f"front {nid}: blocks not a partition"


def _gather_result(plan, instances_by_rank):
    """Assemble each parent front from the per-rank instances."""
    out = {}
    for pid in plan.parents:
        n = plan.fronts[pid].front_size
        acc = np.zeros((n, n))
        for r, insts in instances_by_rank.items():
            if pid in insts:
                acc += insts[pid].dense()
        out[pid] = acc
    return out


def _check_against_reference(plan, instances_by_rank):
    ref = serial_eadd_reference(plan)
    got = _gather_result(plan, instances_by_rank)
    for pid in plan.parents:
        assert np.allclose(got[pid], ref[pid]), f"front {pid} mismatch"


class TestUpcxxEadd:
    def test_matches_serial_reference(self, small_plan):
        collected = {}

        def body():
            return upcxx_eadd_run(small_plan, collect=collected)

        upcxx.run_spmd(body, 4)
        _check_against_reference(small_plan, collected)

    def test_driver_returns_positive_elapsed(self, small_plan):
        def body():
            return upcxx_eadd_run(small_plan)

        times = upcxx.run_spmd(body, 4)
        assert all(t > 0 for t in times)


class TestMpiEadd:
    @pytest.mark.parametrize("variant", ["alltoallv", "p2p"])
    def test_matches_serial_reference(self, small_plan, variant):
        collected = {}

        def body():
            return mpi_eadd_run(small_plan, variant, collect=collected)

        run_mpi(body, 4)
        _check_against_reference(small_plan, collected)

    @pytest.mark.parametrize("variant", ["alltoallv", "p2p"])
    def test_driver_returns_positive_elapsed(self, small_plan, variant):
        def body():
            return mpi_eadd_run(small_plan, variant)

        times = run_mpi(body, 4)
        assert all(t > 0 for t in times)


class TestCrossVariantConsistency:
    def test_all_variants_same_data_volume(self, small_plan):
        """The paper: every variant communicates the same amount of data."""
        ref = serial_eadd_reference(small_plan)
        total_ref = sum(m.sum() for m in ref.values())
        assert total_ref > 0

        def upcxx_body():
            return upcxx_eadd_run(small_plan)

        def mpi_body_a():
            return mpi_eadd_run(small_plan, "alltoallv")

        def mpi_body_p():
            return mpi_eadd_run(small_plan, "p2p")

        tu = upcxx.run_spmd(upcxx_body, 4)
        ta = run_mpi(mpi_body_a, 4)
        tp = run_mpi(mpi_body_p, 4)
        # sanity: everything ran; all elapsed positive
        assert all(t > 0 for t in tu + ta + tp)

    def test_single_proc_all_variants(self):
        plan = build_eadd_plan(4, 4, 2, n_procs=1, leaf_size=6, block=4)

        def upcxx_body():
            return upcxx_eadd_run(plan)

        def mpi_body():
            return mpi_eadd_run(plan, "alltoallv")

        assert upcxx.run_spmd(upcxx_body, 1)[0] > 0
        assert run_mpi(mpi_body, 1)[0] > 0


def test_eadd_variants_reproduce_golden():
    """Per-rank sweep times and owned front values of all three variants
    on an 8-rank, two-node plan are pinned (``tests.golden``)."""
    results = golden.reproduces("eadd_variants").results
    assert sorted(results) == ["alltoallv", "p2p", "upcxx"]
    # the variants land the same values, in different simulated times
    assert len({tuple(h for _t, h in per_rank) for per_rank in results.values()}) == 1
    assert len({tuple(t for t, _h in per_rank) for per_rank in results.values()}) == 3


def _plan_arrays(plan):
    """A copy of every array the plan's layouts and routes hold."""
    out = {}
    for key, lay in plan.layouts.items():
        out[("layout", key)] = [a.copy() for a in (lay.grow, lay.gcol, lay.lrow, lay.lcol)]
    for key, route in plan.routes.items():
        bins = [(w, rs.start, rs.stop, cs.start, cs.stop) for w, rs, cs in route.bins]
        out[("route", key)] = [a.copy() for a in route[:4]] + [np.array(bins)]
    return out


def _swept_fronts(plan, sweep, n):
    collected = {}
    sweep(collected, n)
    return {(r, nid): inst.dense() for r, insts in collected.items() for nid, inst in insts.items()}


class TestPlanOwnsTheIndexWork:
    SWEEPS = {
        "upcxx": lambda plan, c, n: upcxx.run_spmd(lambda: upcxx_eadd_run(plan, collect=c), n),
        "alltoallv": lambda plan, c, n: run_mpi(lambda: mpi_eadd_run(plan, "alltoallv", collect=c), n),
        "p2p": lambda plan, c, n: run_mpi(lambda: mpi_eadd_run(plan, "p2p", collect=c), n),
    }

    @pytest.mark.parametrize("variant", sorted(SWEEPS))
    def test_two_sweeps_give_identical_fronts_and_leave_the_plan_unchanged(self, variant):
        plan = build_eadd_plan(4, 4, 3, n_procs=4, leaf_size=6, block=4)
        before = _plan_arrays(plan)
        sweep = self.SWEEPS[variant]
        first = _swept_fronts(plan, lambda c, n: sweep(plan, c, n), 4)
        second = _swept_fronts(plan, lambda c, n: sweep(plan, c, n), 4)
        assert first.keys() == second.keys()
        assert all(np.array_equal(first[k], second[k]) for k in first)
        after = _plan_arrays(plan)
        assert before.keys() == after.keys()
        for key, arrays in before.items():
            assert all(np.array_equal(a, b) for a, b in zip(arrays, after[key], strict=True))
        lay = next(iter(plan.layouts.values()))
        assert not lay.lrow.flags.writeable  # read-only: a sweep cannot write it

    def test_plans_of_different_grids_share_no_layout(self):
        first = build_eadd_plan(4, 4, 3, n_procs=4, leaf_size=6, block=4)
        first_ids = {id(lay) for lay in first.layouts.values()}
        second = build_eadd_plan(4, 4, 2, n_procs=4, leaf_size=6, block=4)
        assert first_ids.isdisjoint(id(lay) for lay in second.layouts.values())
        del first  # a freed plan's ids may be reused; nothing may key on them
        third = build_eadd_plan(5, 3, 2, n_procs=4, leaf_size=6, block=4)
        for plan in (second, third):
            assert set(plan.layouts) == {(nid, r) for nid, team in plan.teams.items() for r in team}
            for (nid, r), lay in plan.layouts.items():
                assert lay.sym is plan.fronts[nid] and lay.my_world_rank == r
                assert len(lay.lrow) == plan.fronts[nid].front_size
            for me in range(4):
                for nid, inst in _build_instances(plan, me).items():
                    assert inst.layout is plan.layouts[(nid, me)]


def test_a_plan_and_every_sweep_leave_scipy_unloaded():
    """The Fig. 8 and Fig. 9 sweeps need no SciPy: not to build the plan's
    stencil, not to sweep."""
    code = """
import sys
import repro.upcxx as upcxx
from repro.apps.sparse.extend_add import build_eadd_plan, mpi_eadd_run, upcxx_eadd_run
from repro.apps.sparse.sympack import sympack_run
from repro.bench.eadd_bench import FIG8_GRID
from repro.mpisim import run_mpi

plan = build_eadd_plan(*(g // 2 for g in FIG8_GRID), n_procs=4, leaf_size=24)
upcxx.run_spmd(lambda: upcxx_eadd_run(plan), 4)
run_mpi(lambda: mpi_eadd_run(plan, "alltoallv"), 4)
run_mpi(lambda: mpi_eadd_run(plan, "p2p"), 4)
upcxx.run_spmd(lambda: sympack_run(plan, "v1"), 4)
upcxx.run_spmd(lambda: sympack_run(plan, "v01"), 4)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
