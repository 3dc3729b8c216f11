"""Elimination trees (Liu's algorithm) and postorder utilities.

The column elimination tree of an SPD matrix A under an ordering perm:
``parent[j]`` is the smallest i > j such that L[i, j] != 0 in the Cholesky
factor.  Computed with Liu's path-compression algorithm in near-linear
time — the classic structure the paper's §IV-D background cites [15].
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # SciPy loads where a matrix is converted
    import scipy.sparse as sp


def elimination_tree(a: sp.spmatrix, perm: Optional[Sequence[int]] = None) -> np.ndarray:
    """Return ``parent`` (length n, -1 for roots) of A(perm, perm).

    Liu's algorithm with virtual ancestors (path compression).
    """
    import scipy.sparse as sp
    a = sp.csc_matrix(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    if perm is not None:
        perm = np.asarray(perm)
        if sorted(perm.tolist()) != list(range(n)):
            raise ValueError("perm is not a permutation")
        a = sp.csc_matrix(a[perm, :][:, perm])

    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    indptr, indices = a.indptr, a.indices
    for j in range(n):
        for p in range(indptr[j], indptr[j + 1]):
            i = indices[p]
            if i >= j:
                continue
            # walk i's root path, compressing through virtual ancestors
            r = i
            while ancestor[r] != -1 and ancestor[r] != j:
                nxt = ancestor[r]
                ancestor[r] = j
                r = nxt
            if ancestor[r] == -1:
                ancestor[r] = j
                parent[r] = j
    return parent


def postorder(parent: Sequence[int]) -> np.ndarray:
    """A postorder permutation of the forest given by ``parent``."""
    n = len(parent)
    children: List[List[int]] = [[] for _ in range(n)]
    roots: List[int] = []
    for j, p in enumerate(parent):
        if p == -1:
            roots.append(j)
        else:
            children[p].append(j)
    out = np.empty(n, dtype=np.int64)
    k = 0
    # iterative DFS to avoid recursion limits on path-shaped trees
    for root in roots:
        stack = [(root, 0)]
        while stack:
            node, ci = stack.pop()
            if ci < len(children[node]):
                stack.append((node, ci + 1))
                stack.append((children[node][ci], 0))
            else:
                out[k] = node
                k += 1
    if k != n:
        raise ValueError("parent array contains a cycle")
    return out


def subtree_sizes(parent: Sequence[int]) -> np.ndarray:
    """Number of nodes in each node's subtree (including itself)."""
    n = len(parent)
    size = np.ones(n, dtype=np.int64)
    for j in postorder(parent):
        p = parent[j]
        if p != -1:
            size[p] += size[j]
    return size


def tree_height(parent: Sequence[int]) -> int:
    """Height of the elimination forest (1 for a single node)."""
    n = len(parent)
    depth = np.zeros(n, dtype=np.int64)
    best = 0
    for j in reversed(postorder(parent)):  # parents before children
        p = parent[j]
        depth[j] = depth[p] + 1 if p != -1 else 1
        best = max(best, int(depth[j]))
    return best
