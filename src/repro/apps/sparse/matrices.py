"""Synthetic SPD test matrices.

The paper uses ``audikw_1`` (943k dofs, automotive crankshaft FEM) and
``Flan_1565`` (1.56M dofs, 3-D mechanical FEM) from SuiteSparse.  Both are
3-D mechanical discretizations whose nested-dissection front hierarchies
look like those of 3-D grid Laplacians; offline we substitute scaled 3-D
grid problems whose *front-size distribution* plays the same role in the
extend-add benchmark (message sizes grow toward the root; the tree is
deep and irregular enough to exercise proportional mapping).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # SciPy loads where a matrix is built
    import scipy.sparse as sp


class CsrArrays(NamedTuple):
    """The three arrays of a square CSR matrix, without a SciPy object."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def laplacian_3d_csr(nx: int, ny: int = 0, nz: int = 0) -> CsrArrays:
    """The CSR arrays of :func:`laplacian_3d`, built in numpy alone.

    Row v holds its existing neighbours v - nx*ny, v - nx, v - 1, then v
    (6.0: three 1-D second differences, Dirichlet on every axis), then
    v + 1, v + nx, v + nx*ny, each off-diagonal -1.0, so each row's column
    indices ascend.
    """
    ny = ny or nx
    nz = nz or nx
    if min(nx, ny, nz) < 1:
        raise ValueError(f"grid dims must be >= 1, got {(nx, ny, nz)}")
    n = nx * ny * nz
    v = np.arange(n)
    x, y, z = v % nx, v // nx % ny, v // (nx * ny)
    offsets = np.array([-nx * ny, -nx, -1, 0, 1, nx, nx * ny])
    present = np.stack(
        [z > 0, y > 0, x > 0, np.ones(n, dtype=bool), x < nx - 1, y < ny - 1, z < nz - 1], axis=1
    )
    # int32 indices, as SciPy stores a matrix of this size
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    indices = (v[:, None] + offsets)[present].astype(np.int32)
    data = np.where(offsets == 0, 6.0, -1.0)[np.nonzero(present)[1]]
    return CsrArrays(indptr, indices, data)


def laplacian_3d(nx: int, ny: int = 0, nz: int = 0) -> sp.csr_matrix:
    """The 7-point Laplacian on an ``nx x ny x nz`` grid (SPD, CSR).

    Vertex id = x + nx*(y + ny*z) — the ordering assumed by
    :func:`repro.apps.sparse.ordering.nested_dissection_3d`.  The arrays
    are :func:`laplacian_3d_csr`'s: the sum of Kronecker products of 1-D
    second differences, without the explicit zeros SciPy's ``kron`` keeps
    in that sum on some small grids (such as 2 x 2 x 2).
    """
    import scipy.sparse as sp
    a = laplacian_3d_csr(nx, ny, nz)
    n = len(a.indptr) - 1
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=(n, n))


def proxy_audikw(scale: int = 16) -> tuple:
    """Offline proxy for ``audikw_1``: a slightly anisotropic 3-D grid.

    Returns ``(A, dims)`` where dims feed nested dissection.  ``scale``
    controls problem size; the default (16x16x16 = 4 096 dofs) keeps
    simulated extend-add runs tractable while preserving tree shape.
    """
    nx, ny, nz = scale, scale, max(2, scale - scale // 4)
    return laplacian_3d(nx, ny, nz), (nx, ny, nz)


def proxy_flan(scale: int = 14) -> tuple:
    """Offline proxy for ``Flan_1565``: an elongated 3-D grid (shell-like)."""
    nx, ny, nz = scale, scale, max(2, scale // 2)
    return laplacian_3d(nx, ny, nz), (nx, ny, nz)


def random_spd(n: int, density: float = 0.01, seed: int = 0) -> sp.csr_matrix:
    """A random SPD matrix (for property tests of the generic elimtree)."""
    import scipy.sparse as sp
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=rng, format="csr")
    a = a + a.T
    # diagonal dominance => SPD
    a = a + sp.diags(np.abs(a).sum(axis=1).A1 + 1.0)
    return sp.csr_matrix(a)
