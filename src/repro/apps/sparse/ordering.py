"""Geometric nested dissection for 3-D grid problems.

Recursive bisection by the middle plane of the longest box dimension: the
plane is a *separator* (one front), the two half-boxes recurse.  Leaves
below ``leaf_size`` vertices become leaf fronts.  The recursion tree is
exactly the frontal-matrix tree of the multifrontal method (paper §IV-D:
"frontal matrices are organized along the elimination tree").

The elimination order is the postorder of this tree (children before
parents), which is what multifrontal factorization requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class DissectionNode:
    """One node of the separator tree (== one frontal matrix)."""

    #: vertices eliminated at this node (separator plane or leaf box)
    vertices: List[int]
    children: List["DissectionNode"] = field(default_factory=list)
    #: filled in by number(): node id in postorder
    node_id: int = -1
    parent: Optional["DissectionNode"] = None

    def postorder(self) -> List["DissectionNode"]:
        out: List[DissectionNode] = []

        def rec(n: "DissectionNode"):
            for c in n.children:
                rec(c)
            out.append(n)

        rec(self)
        return out


def _box_vertices(nx: int, ny: int, box: Tuple[int, int, int, int, int, int]) -> List[int]:
    x0, x1, y0, y1, z0, z1 = box
    out = []
    for z in range(z0, z1):
        for y in range(y0, y1):
            base = nx * (y + ny * z)
            out.extend(range(base + x0, base + x1))
    return out


def nested_dissection_3d(
    nx: int,
    ny: int,
    nz: int,
    leaf_size: int = 64,
) -> Tuple[DissectionNode, List[int]]:
    """Dissect the ``nx x ny x nz`` grid.

    Returns ``(root, perm)`` where ``perm[k]`` is the grid vertex
    eliminated at position ``k`` (postorder of the separator tree).
    """
    if min(nx, ny, nz) < 1:
        raise ValueError(f"grid dims must be >= 1, got {(nx, ny, nz)}")
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")

    def rec(box) -> DissectionNode:
        x0, x1, y0, y1, z0, z1 = box
        dx, dy, dz = x1 - x0, y1 - y0, z1 - z0
        vol = dx * dy * dz
        if vol <= leaf_size or max(dx, dy, dz) < 3:
            return DissectionNode(vertices=_box_vertices(nx, ny, box))
        # split the longest dimension by its middle plane
        if dx >= dy and dx >= dz:
            mid = x0 + dx // 2
            sep = (mid, mid + 1, y0, y1, z0, z1)
            left = (x0, mid, y0, y1, z0, z1)
            right = (mid + 1, x1, y0, y1, z0, z1)
        elif dy >= dz:
            mid = y0 + dy // 2
            sep = (x0, x1, mid, mid + 1, z0, z1)
            left = (x0, x1, y0, mid, z0, z1)
            right = (x0, x1, mid + 1, y1, z0, z1)
        else:
            mid = z0 + dz // 2
            sep = (x0, x1, y0, y1, mid, mid + 1)
            left = (x0, x1, y0, y1, z0, mid)
            right = (x0, x1, y0, y1, mid + 1, z1)
        node = DissectionNode(vertices=_box_vertices(nx, ny, sep))
        lc, rc = rec(left), rec(right)
        lc.parent = node
        rc.parent = node
        node.children = [lc, rc]
        return node

    root = rec((0, nx, 0, ny, 0, nz))
    perm: List[int] = []
    for i, node in enumerate(root.postorder()):
        node.node_id = i
        perm.extend(node.vertices)
    n = nx * ny * nz
    if len(perm) != n or len(set(perm)) != n:
        raise AssertionError("nested dissection did not produce a permutation")
    return root, perm
