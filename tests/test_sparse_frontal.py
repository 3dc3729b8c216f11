"""FrontInstance kernels against per-element references on random float64
fronts: pack routing and bin order, packed arrays never aliasing the front,
scatter-add order, and rejection of contributions a rank does not own;
the stored routes and message counts of the Fig. 8 plan and of a padded
2-D Cholesky plan against ones computed on the spot."""

import numpy as np
import pytest

from repro.apps.sparse.extend_add import _build_instances, build_eadd_plan
from repro.apps.sparse.frontal import BlockCyclic, FrontInstance, FrontLayout, positions, to_parent
from repro.apps.sparse.numeric2d import build_cholesky_2d_plan
from repro.apps.sparse.symbolic import FrontSymbolic
from repro.bench.eadd_bench import FIG8_GRID, FIG8_LEAF

# (child n_cols, child n_border, child block, child team, parent team, parent block)
CASES = {
    "ragged": (5, 14, 4, 4, 6, 4),  # n = 19, not a multiple of the block
    "team_of_one": (3, 9, 4, 1, 3, 4),
    "rank_without_f22": (8, 3, 4, 4, 4, 4),  # rank 3 owns only block (1, 1), inside F11
    "parent_block_differs": (6, 17, 5, 6, 4, 3),
}


def _fronts(nc, nborder, seed):
    """A child front whose border is a shuffled subset of its parent's rows."""
    rng = np.random.default_rng(seed)
    parent_rows = rng.permutation(np.arange(1000, 1000 + 2 * nborder + 7))
    parent = FrontSymbolic(100, parent_rows[:5], parent_rows[5:])
    border = rng.choice(parent_rows, nborder, replace=False)
    child = FrontSymbolic(7, np.arange(nc), border, parent=100)
    return child, parent


def _route(inst, parent, parent_team, parent_block):
    """``inst``'s route into ``parent``, computed on the spot."""
    lay = inst.layout
    return lay.route(to_parent(lay.sym, parent), parent_team, parent_block)


def _child_instances(case, seed=0):
    """Every team member's instance of one random child front, filled
    block by block from one dense random matrix."""
    nc, nborder, block, team_size, parent_team_size, parent_block = CASES[case]
    child, parent = _fronts(nc, nborder, seed)
    values = np.random.default_rng(seed + 1).standard_normal((child.front_size,) * 2)
    team = [10 + t for t in range(team_size)]
    insts = []
    for me in team:
        inst = FrontInstance(FrontLayout(child, team, me, block))
        for (bi, bj), blk in inst.blocks.items():
            blk[:] = values[bi * block : bi * block + blk.shape[0], bj * block : bj * block + blk.shape[1]]
        insts.append(inst)
    parent_team = [20 + 2 * t for t in range(parent_team_size)]
    return child, parent, values, insts, parent_team, parent_block


def _reference_bins(child, parent, values, inst, parent_team, parent_block):
    """Per element: every owned F22 entry, routed one at a time."""
    rows = list(parent.row_indices)
    pgrid = BlockCyclic(len(parent_team), parent_block)
    bins = {}
    for i in range(child.n_cols, child.front_size):
        for j in range(child.n_cols, child.front_size):
            if inst.layout.grid.owner(i, j) != inst.layout.my_team_idx:
                continue
            pi, pj = rows.index(child.row_indices[i]), rows.index(child.row_indices[j])
            dest = parent_team[pgrid.owner(pi, pj)]
            bins.setdefault(dest, []).append((pi, pj, values[i, j]))
    return {dest: sorted(triples) for dest, triples in bins.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pack_matches_per_element_routing(case):
    child, parent, values, insts, parent_team, parent_block = _child_instances(case)
    for inst in insts:
        packed = inst.pack(_route(inst, parent, parent_team, parent_block))
        want = _reference_bins(child, parent, values, inst, parent_team, parent_block)
        got = {
            dest: sorted(zip(pi.tolist(), pj.tolist(), v.tolist()))
            for dest, (pi, pj, v) in packed.items()
        }
        assert got == want
        assert list(packed) == sorted(packed, key=parent_team.index)
        assert _route(inst, parent, parent_team, parent_block).counts() == {
            dest: len(v) for dest, (_pi, _pj, v) in packed.items()
        }
        for triple in packed.values():
            assert not any(np.shares_memory(a, inst.local) for a in triple)
    if case == "rank_without_f22":
        assert insts[3].pack(_route(insts[3], parent, parent_team, parent_block)) == {}


@pytest.mark.parametrize("case", sorted(CASES))
def test_accumulate_is_sequential_per_element(case):
    """Messages repeating (i, j) across each other, merged into one call the
    way Alltoallv merges bins, add in input order: bit-equal to a loop."""
    _child, parent, _values, _insts, parent_team, parent_block = _child_instances(case)
    rng = np.random.default_rng(3)
    for me in parent_team:
        inst = FrontInstance(FrontLayout(parent, parent_team, me, parent_block))
        n = parent.front_size
        lay = inst.layout
        owned = np.array(
            [(i, j) for i in range(n) for j in range(n) if lay.grid.owner(i, j) == lay.my_team_idx]
        )
        start = rng.standard_normal(len(owned))
        inst.accumulate(owned[:, 0], owned[:, 1], start)
        want = inst.dense()
        messages = []
        for _ in range(3):
            pick = owned[rng.integers(0, len(owned), 2 * len(owned))]
            messages.append((pick[:, 0], pick[:, 1], rng.standard_normal(len(pick)) * 1e3))
        for pi, pj, v in messages:
            for i, j, x in zip(pi, pj, v):
                want[i, j] += x
        pi, pj, v = (np.concatenate(parts) for parts in zip(*messages))
        # values as a received frame may hold them: read-only and unaligned
        frame = np.frombuffer(b"\0" + v.tobytes(), dtype=np.float64, offset=1)
        assert not frame.flags.aligned and not frame.flags.writeable
        inst.accumulate(pi, pj, frame)
        assert np.array_equal(inst.dense(), want)


def test_contribution_outside_owned_blocks_raises():
    _child, parent, _values, _insts, parent_team, parent_block = _child_instances("ragged")
    inst = FrontInstance(FrontLayout(parent, parent_team, parent_team[0], parent_block))
    i, j = 0, parent_block  # block (0, 1): team index 1's
    assert inst.layout.grid.owner(i, j) != inst.layout.my_team_idx
    with pytest.raises(ValueError, match="outside"):
        inst.accumulate(np.array([0, i]), np.array([0, j]), np.ones(2))
    assert not inst.local.any()  # nothing of a rejected message lands
    outsider = FrontInstance(FrontLayout(parent, parent_team, 999, parent_block))
    with pytest.raises(ValueError, match="outside"):
        outsider.accumulate(np.array([0]), np.array([0]), np.ones(1))


def test_border_index_missing_from_parent_raises_key_error():
    child, parent = _fronts(4, 6, seed=0)
    stray = FrontSymbolic(8, child.cols, np.r_[child.border[:-1], 5], parent=100)
    with pytest.raises(KeyError, match="5"):
        to_parent(stray, parent)
    assert list(positions(np.array([30, 10, 20]), np.array([20, 30]))) == [2, 0]


def test_a_merged_payload_repeating_parent_cells_adds_every_contribution():
    """An Alltoallv buffer concatenates two children's bins for one
    destination; where the children's borders share parent rows the
    payload repeats a (pi, pj), and each repeat must land, in order."""
    rng = np.random.default_rng(11)
    parent_rows = rng.permutation(np.arange(500, 530))
    parent = FrontSymbolic(100, parent_rows[:4], parent_rows[4:])
    shared = parent_rows[4:12]
    kids = [
        FrontSymbolic(1, np.arange(3), np.r_[shared, parent_rows[12:18]], parent=100),
        FrontSymbolic(2, np.arange(5), np.r_[parent_rows[20:25], shared], parent=100),
    ]
    team, parent_team, block = [0, 1], [0, 1, 2], 4
    merged = {}
    for kid in kids:
        for me in team:
            inst = FrontInstance(FrontLayout(kid, team, me, block))
            inst.local[:] = rng.standard_normal(inst.local.shape)
            for dest, triple in inst.pack(_route(inst, parent, parent_team, block)).items():
                merged.setdefault(dest, []).append(triple)
    repeats = 0
    for dest, parts in merged.items():
        pi, pj, v = (np.concatenate(cols) for cols in zip(*parts))
        repeats += len(pi) - len(set(zip(pi.tolist(), pj.tolist())))
        inst = FrontInstance(FrontLayout(parent, parent_team, dest, block))
        want = inst.dense()
        for i, j, x in zip(pi, pj, v):
            want[i, j] += x
        inst.accumulate(pi, pj, v)
        assert np.array_equal(inst.dense(), want)
    assert repeats > 0


def test_an_empty_message_adds_nothing():
    _child, parent, _values, _insts, parent_team, parent_block = _child_instances("ragged")
    inst = FrontInstance(FrontLayout(parent, parent_team, parent_team[0], parent_block))
    none = np.array([], dtype=np.int64)
    inst.accumulate(none, none, np.array([]))
    assert not inst.local.any()


def test_blocks_are_built_on_first_access_in_my_blocks_order():
    child, _parent, _values, _insts, parent_team, parent_block = _child_instances("ragged")
    inst = FrontInstance(FrontLayout(child, [10, 11, 12, 13], 12, 4))
    inst.fill()
    assert "blocks" not in vars(inst)
    assert list(inst.blocks) == inst.layout.grid.my_blocks(inst.layout.my_team_idx, child.front_size)
    assert all(np.shares_memory(blk, inst.local) for blk in inst.blocks.values())
    assert FrontInstance(FrontLayout(child, [10, 11], 99, 4)).blocks == {}


def test_the_plans_routes_pack_as_routes_computed_on_the_spot():
    """Every (child, rank) of the 16-process Fig. 8 plan and of the 2-D
    Cholesky's plan over fronts padded to a block of 7: packing along the
    stored route gives what packing along a route computed on the spot
    gives — keys, order, dtypes, values — on random fronts, and the plan's
    expected message counts are those routes' counts."""
    rng = np.random.default_rng(5)
    for plan in (
        build_eadd_plan(*FIG8_GRID, n_procs=16, leaf_size=FIG8_LEAF),
        build_cholesky_2d_plan(5, 4, 3, n_procs=4, leaf_size=10, block=7).eadd,
    ):
        assert len(plan.routes) == sum(len(plan.teams[c]) for p in plan.parents for c in plan.fronts[p].children)
        expected = {(pid, r): 0 for pid in plan.parents for r in plan.teams[pid]}
        for (cid, me), route in plan.routes.items():
            inst = _build_instances(plan, me)[cid]
            inst.local[:] = rng.standard_normal(inst.local.shape)
            pid = plan.fronts[cid].parent
            got = inst.pack(route)
            want = inst.pack(_route(inst, plan.fronts[pid], plan.teams[pid], plan.block))
            assert list(got) == list(want)
            for dest in want:
                expected[(pid, dest)] += 1
                for a, b in zip(got[dest], want[dest]):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                    assert not any(np.shares_memory(a, x) for x in (inst.local, *route[:4]))
        assert plan.expected == expected
