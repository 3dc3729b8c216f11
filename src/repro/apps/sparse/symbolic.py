"""Symbolic factorization: per-front column/row structure.

For each front F (a separator-tree node), multifrontal symbolic structure:

- ``cols(F)``   — the vertices eliminated at F (the F11 block's extent);
- ``border(F)`` — the update rows: struct(F) \\ cols(F), where

  ``struct(F) = adj_A(cols F)  ∪  ⋃_child (struct(child) \\ cols(child))``

restricted to vertices eliminated later (ancestors).  ``border`` indexes
the contribution block F22 that extend-add scatters into the parent
(paper Fig. 5: the ``Ip`` / ``IlC`` / ``IrC`` index sets).

Computed bottom-up over the separator tree in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from repro.apps.sparse.matrices import CsrArrays
from repro.apps.sparse.ordering import DissectionNode

if TYPE_CHECKING:  # SciPy loads where a matrix is converted
    import scipy.sparse as sp


@dataclass
class FrontSymbolic:
    """Structure of one frontal matrix."""

    node_id: int
    #: global vertex ids eliminated at this front, in elimination order
    cols: np.ndarray
    #: global vertex ids of the update rows (eliminated at ancestors),
    #: sorted by elimination position
    border: np.ndarray
    #: children node ids (in the separator tree)
    children: List[int] = field(default_factory=list)
    parent: int = -1

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    @property
    def n_border(self) -> int:
        return len(self.border)

    @property
    def front_size(self) -> int:
        """Total front dimension |cols| + |border| (the dense F extent)."""
        return self.n_cols + self.n_border

    @property
    def row_indices(self) -> np.ndarray:
        """The paper's I_p: cols then border, global ids."""
        return np.concatenate([self.cols, self.border])

    def factor_flops(self) -> float:
        """Dense partial-Cholesky flop estimate for this front."""
        nc, nb = float(self.n_cols), float(self.n_border)
        return nc**3 / 3.0 + nc**2 * nb + nc * nb**2


def symbolic_from_dissection(
    a: Union[sp.spmatrix, CsrArrays],
    root: DissectionNode,
    elim_pos: Optional[np.ndarray] = None,
) -> Dict[int, FrontSymbolic]:
    """Bottom-up symbolic factorization over the separator tree.

    ``a`` is a SciPy sparse matrix or the :class:`CsrArrays` of one (read
    without loading SciPy).  ``elim_pos[v]`` = elimination position of
    vertex v; derived from the tree's postorder if not given.  Returns
    {node_id: FrontSymbolic}.
    """
    if not isinstance(a, CsrArrays):
        import scipy.sparse as sp
        a = sp.csr_matrix(a)
    n = len(a.indptr) - 1
    nodes = root.postorder()
    if elim_pos is None:
        elim_pos = np.empty(n, dtype=np.int64)
        k = 0
        for node in nodes:
            for v in node.vertices:
                elim_pos[v] = k
                k += 1

    fronts: Dict[int, FrontSymbolic] = {}
    #: node_id -> set of global vertices in struct(F) \ cols(F)
    carried: Dict[int, set] = {}

    indptr, indices = a.indptr, a.indices
    for node in nodes:
        cols = np.asarray(node.vertices, dtype=np.int64)
        cols = cols[np.argsort(elim_pos[cols])]
        col_set = set(cols.tolist())
        last_pos = max(elim_pos[v] for v in node.vertices)

        struct: set = set()
        for v in node.vertices:
            for p in range(indptr[v], indptr[v + 1]):
                w = indices[p]
                if elim_pos[w] > last_pos:
                    struct.add(int(w))
        for c in node.children:
            struct |= carried.pop(c.node_id)
        struct -= col_set
        # everything in struct is eliminated strictly after this front
        border = np.fromiter(struct, dtype=np.int64, count=len(struct))
        border = border[np.argsort(elim_pos[border])]

        fronts[node.node_id] = FrontSymbolic(
            node_id=node.node_id,
            cols=cols,
            border=border,
            children=[c.node_id for c in node.children],
            parent=node.parent.node_id if node.parent is not None else -1,
        )
        if node.parent is not None:
            carried[node.node_id] = struct

    return fronts


def check_symbolic_invariants(fronts: Dict[int, FrontSymbolic]) -> None:
    """Assert the structural facts extend-add relies on (tests)."""
    for f in fronts.values():
        # child's border must be contained in parent's row set: every
        # contribution entry has a landing position (the red arrows of
        # the paper's Fig. 5)
        if f.parent != -1:
            parent = fronts[f.parent]
            parent_rows = set(parent.row_indices.tolist())
            missing = set(f.border.tolist()) - parent_rows
            if missing:
                raise AssertionError(
                    f"front {f.node_id}: {len(missing)} border vertices missing "
                    f"from parent {f.parent} row structure"
                )
        # cols and border are disjoint
        if set(f.cols.tolist()) & set(f.border.tolist()):
            raise AssertionError(f"front {f.node_id}: cols/border overlap")
