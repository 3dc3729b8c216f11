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

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # SciPy loads where a matrix is built
    import scipy.sparse as sp


def laplacian_3d(nx: int, ny: int = 0, nz: int = 0) -> sp.csr_matrix:
    """The 7-point Laplacian on an ``nx x ny x nz`` grid (SPD, CSR).

    Vertex id = x + nx*(y + ny*z) — the ordering assumed by
    :func:`repro.apps.sparse.ordering.nested_dissection_3d`.
    """
    import scipy.sparse as sp
    ny = ny or nx
    nz = nz or nx
    if min(nx, ny, nz) < 1:
        raise ValueError(f"grid dims must be >= 1, got {(nx, ny, nz)}")

    def lap1d(n: int) -> sp.csr_matrix:
        if n == 1:
            return sp.csr_matrix(np.array([[2.0]]))
        main = 2.0 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        return sp.diags([off, main, off], [-1, 0, 1], format="csr")

    ix, iy, iz = sp.identity(nx), sp.identity(ny), sp.identity(nz)
    a = (
        sp.kron(iz, sp.kron(iy, lap1d(nx)))
        + sp.kron(iz, sp.kron(lap1d(ny), ix))
        + sp.kron(sp.kron(lap1d(nz), iy), ix)
    )
    return sp.csr_matrix(a)


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
