"""Proportional mapping of fronts onto process teams (paper [16]).

The root front gets all P processes; each child subtree gets a contiguous
slice of its parent's team sized proportionally to the subtree's estimated
factorization work, with a minimum of one process.  Every front is then
worked on by its assigned team, and a front's team is always a subset of
its parent's — the property the extend-add traffic pattern relies on.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.sparse.symbolic import FrontSymbolic


def subtree_work(fronts: Dict[int, FrontSymbolic]) -> Dict[int, float]:
    """Total factor flops in each node's subtree (bottom-up)."""
    work: Dict[int, float] = {}
    # fronts dict is keyed by postorder node ids: children < parent
    for nid in sorted(fronts):
        f = fronts[nid]
        work[nid] = f.factor_flops() + sum(work[c] for c in f.children)
    return work


def proportional_mapping(
    fronts: Dict[int, FrontSymbolic],
    n_procs: int,
    root_id: int = None,
) -> Dict[int, List[int]]:
    """Assign each front a list of world ranks.

    Returns {node_id: [ranks]}; the root gets ``range(n_procs)``, children
    get proportional contiguous slices of their parent's ranks.
    """
    if n_procs < 1:
        raise ValueError(f"n_procs must be >= 1, got {n_procs}")
    if root_id is None:
        root_id = max(fronts)  # postorder: the root has the largest id
    work = subtree_work(fronts)
    teams: Dict[int, List[int]] = {}

    def assign(nid: int, ranks: List[int]) -> None:
        teams[nid] = ranks
        f = fronts[nid]
        if not f.children:
            return
        if len(ranks) == 1:
            for c in f.children:
                assign(c, ranks)
            return
        # split ranks proportionally to child subtree work (>= 1 each
        # while ranks remain; largest-remainder rounding)
        weights = [work[c] for c in f.children]
        total = sum(weights) or 1.0
        n = len(ranks)
        raw = [w / total * n for w in weights]
        alloc = [max(1, int(r)) for r in raw]
        # fix the sum to exactly n: shrink largest or grow by remainder
        while sum(alloc) > n:
            i = max(range(len(alloc)), key=lambda k: (alloc[k], -raw[k]))
            if alloc[i] > 1:
                alloc[i] -= 1
            else:
                break
        rema = sorted(range(len(alloc)), key=lambda k: raw[k] - alloc[k], reverse=True)
        j = 0
        while sum(alloc) < n:
            alloc[rema[j % len(alloc)]] += 1
            j += 1
        # if more children than ranks, tail children share the last rank
        pos = 0
        for c, k in zip(f.children, alloc):
            lo = min(pos, n - 1)
            hi = max(lo + 1, min(pos + k, n))
            assign(c, ranks[lo:hi])
            pos += k

    assign(root_id, list(range(n_procs)))
    return teams


def check_mapping_invariants(
    fronts: Dict[int, FrontSymbolic], teams: Dict[int, List[int]]
) -> None:
    """Assert team-nesting and coverage properties (tests)."""
    for nid, f in fronts.items():
        team = teams[nid]
        if not team:
            raise AssertionError(f"front {nid} has an empty team")
        if len(set(team)) != len(team):
            raise AssertionError(f"front {nid} team has duplicates")
        if f.parent != -1:
            parent_team = set(teams[f.parent])
            if not set(team) <= parent_team:
                raise AssertionError(
                    f"front {nid} team is not nested in parent {f.parent}'s team"
                )
