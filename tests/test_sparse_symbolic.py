"""Tests for the serial sparse machinery: matrices, ordering, elimination
trees, symbolic factorization, proportional mapping, block-cyclic layout."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.apps.sparse import (
    BlockCyclic,
    FrontInstance,
    elimination_tree,
    laplacian_3d,
    nested_dissection_3d,
    postorder,
    proportional_mapping,
    proxy_audikw,
    proxy_flan,
    symbolic_from_dissection,
)
from repro.apps.sparse.elimtree import subtree_sizes, tree_height
from repro.apps.sparse.matrices import random_spd
from repro.apps.sparse.propmap import check_mapping_invariants, subtree_work
from repro.apps.sparse.symbolic import check_symbolic_invariants


class TestMatrices:
    def test_laplacian_shape_and_symmetry(self):
        a = laplacian_3d(4, 3, 2)
        assert a.shape == (24, 24)
        assert (a != a.T).nnz == 0

    def test_laplacian_spd(self):
        a = laplacian_3d(4).toarray()
        w = np.linalg.eigvalsh(a)
        assert w.min() > 0

    def test_laplacian_stencil(self):
        a = laplacian_3d(3)
        # interior vertex has 6 neighbors + diagonal
        center = 1 + 3 * (1 + 3 * 1)
        assert a[center].nnz == 7
        assert a[center, center] == 6.0

    def test_proxies(self):
        a, dims = proxy_audikw(8)
        assert a.shape[0] == dims[0] * dims[1] * dims[2]
        b, dims2 = proxy_flan(8)
        assert b.shape[0] == dims2[0] * dims2[1] * dims2[2]

    def test_random_spd_is_spd(self):
        a = random_spd(30, seed=3).toarray()
        assert np.linalg.eigvalsh(a).min() > 0


class TestNestedDissection:
    def test_perm_is_permutation(self):
        for dims in [(4, 4, 4), (5, 3, 2), (8, 8, 8), (1, 1, 1), (7, 1, 1)]:
            _root, perm = nested_dissection_3d(*dims, leaf_size=8)
            n = dims[0] * dims[1] * dims[2]
            assert sorted(perm) == list(range(n))

    def test_tree_structure(self):
        root, _ = nested_dissection_3d(8, 8, 8, leaf_size=16)
        nodes = root.postorder()
        assert nodes[-1] is root
        assert root.node_id == len(nodes) - 1
        for node in nodes:
            for c in node.children:
                assert c.parent is node
                assert c.node_id < node.node_id  # postorder numbering

    def test_separator_is_plane(self):
        root, _ = nested_dissection_3d(8, 8, 8, leaf_size=16)
        # the root separator of a cube is a full plane: 8x8 vertices
        assert len(root.vertices) == 64

    @staticmethod
    def _leaves_within(leaf_size):
        root, _ = nested_dissection_3d(8, 8, 8, leaf_size=leaf_size)
        for node in root.postorder():
            if not node.children:
                # a 2x2x2 box stops early: it is a leaf of 8 whatever the size
                assert len(node.vertices) <= max(leaf_size, 8)
        # at least a two-level tree
        assert root.children

    def test_leaf_size_respected(self):
        self._leaves_within(10)

    def test_leaf_size_respected_below_a_box(self):
        self._leaves_within(4)


class TestElimTree:
    def test_chain_matrix_gives_path_tree(self):
        # tridiagonal matrix: parent[j] = j+1
        n = 10
        a = sp.diags([np.ones(n - 1), 2 * np.ones(n), np.ones(n - 1)], [-1, 0, 1])
        parent = elimination_tree(a)
        assert list(parent[:-1]) == list(range(1, n))
        assert parent[-1] == -1

    def test_diagonal_matrix_gives_forest(self):
        a = sp.identity(6)
        parent = elimination_tree(a)
        assert all(p == -1 for p in parent)

    def test_postorder_children_before_parents(self):
        a = laplacian_3d(4)
        parent = elimination_tree(a)
        po = postorder(parent)
        seen = set()
        pos = {int(j): k for k, j in enumerate(po)}
        for j in po:
            seen.add(int(j))
            if parent[j] != -1:
                assert pos[int(parent[j])] > pos[int(j)]
        assert len(seen) == a.shape[0]

    def test_subtree_sizes_sum(self):
        a = laplacian_3d(3)
        parent = elimination_tree(a)
        sizes = subtree_sizes(parent)
        roots = [j for j, p in enumerate(parent) if p == -1]
        assert sum(sizes[r] for r in roots) == a.shape[0]

    def test_tree_height_bounds(self):
        a = laplacian_3d(4)
        parent = elimination_tree(a)
        h = tree_height(parent)
        assert 1 <= h <= a.shape[0]

    def test_nd_reduces_height_vs_natural(self):
        """Nested dissection must flatten the tree vs natural order."""
        nx = 8
        a = laplacian_3d(nx)
        _root, perm = nested_dissection_3d(nx, nx, nx, leaf_size=8)
        h_nat = tree_height(elimination_tree(a))
        h_nd = tree_height(elimination_tree(a, perm))
        assert h_nd < h_nat

    def test_perm_validation(self):
        a = laplacian_3d(2)
        with pytest.raises(ValueError):
            elimination_tree(a, perm=[0, 1, 1, 3, 4, 5, 6, 7])


class TestSymbolic:
    def _fronts(self, dims=(6, 6, 6), leaf=16):
        a = laplacian_3d(*dims)
        root, _ = nested_dissection_3d(*dims, leaf_size=leaf)
        return symbolic_from_dissection(a, root), root

    def test_invariants(self):
        fronts, _ = self._fronts()
        check_symbolic_invariants(fronts)

    def test_root_has_no_border(self):
        fronts, root = self._fronts()
        assert fronts[root.node_id].n_border == 0

    def test_leaves_have_borders(self):
        fronts, _ = self._fronts()
        leaves = [f for f in fronts.values() if not f.children]
        assert all(f.n_border > 0 for f in leaves)

    def test_border_matches_true_cholesky_fill(self):
        """Front borders must equal the actual fill pattern of L."""
        dims = (4, 4, 3)
        a = laplacian_3d(*dims)
        root, perm = nested_dissection_3d(*dims, leaf_size=6)
        fronts = symbolic_from_dissection(a, root)
        # dense Cholesky of the permuted matrix
        ap = a.toarray()[np.ix_(perm, perm)]
        ell = np.linalg.cholesky(ap)
        pos = {v: k for k, v in enumerate(perm)}
        for f in fronts.values():
            for c in f.cols:
                jc = pos[int(c)]
                fill_rows = {int(i) for i in np.flatnonzero(np.abs(ell[:, jc]) > 1e-12) if i > jc}
                struct_rows = {pos[int(g)] for g in f.border}
                struct_rows |= {pos[int(g)] for g in f.cols if pos[int(g)] > jc}
                # Cholesky fill must be contained in the symbolic structure
                assert fill_rows <= struct_rows

    def test_factor_flops_positive(self):
        fronts, _ = self._fronts()
        assert all(f.factor_flops() > 0 for f in fronts.values())


class TestPropMap:
    def _setup(self, n_procs, dims=(6, 6, 6)):
        a = laplacian_3d(*dims)
        root, _ = nested_dissection_3d(*dims, leaf_size=16)
        fronts = symbolic_from_dissection(a, root)
        teams = proportional_mapping(fronts, n_procs)
        return fronts, teams

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 16, 64])
    def test_invariants(self, p):
        fronts, teams = self._setup(p)
        check_mapping_invariants(fronts, teams)

    def test_root_gets_everyone(self):
        fronts, teams = self._setup(8)
        root_id = max(fronts)
        assert teams[root_id] == list(range(8))

    def test_children_partition_work(self):
        fronts, teams = self._setup(16)
        root_id = max(fronts)
        kids = fronts[root_id].children
        all_kid_ranks = sorted(r for c in kids for r in teams[c])
        assert all_kid_ranks == list(range(16))  # two children split evenly-ish

    def test_every_rank_reaches_a_leaf(self):
        fronts, teams = self._setup(8)
        leaves = [nid for nid, f in fronts.items() if not f.children]
        covered = set(r for nid in leaves for r in teams[nid])
        assert covered == set(range(8))

    def test_subtree_work_monotone(self):
        fronts, _ = self._setup(4)
        work = subtree_work(fronts)
        for nid, f in fronts.items():
            for c in f.children:
                assert work[c] < work[nid]


class TestBlockCyclic:
    def test_grid_covers_all_procs(self):
        for p in [1, 2, 3, 4, 6, 7, 12, 16]:
            g = BlockCyclic(p, block=4)
            assert g.pr * g.pc == p
            owners = {g.owner(i, j) for i in range(40) for j in range(40)}
            assert owners == set(range(p))

    def test_owner_vec_matches_scalar(self):
        g = BlockCyclic(6, block=5)
        ii, jj = np.meshgrid(np.arange(30), np.arange(30), indexing="ij")
        vec = g.owner_vec(ii.ravel(), jj.ravel())
        scalar = np.array([g.owner(i, j) for i, j in zip(ii.ravel(), jj.ravel())])
        assert np.array_equal(vec, scalar)

    def test_my_blocks_partition(self):
        g = BlockCyclic(4, block=8)
        n = 50
        nblk = -(-n // 8)
        seen = {}
        for t in range(4):
            for b in g.my_blocks(t, n):
                assert b not in seen
                seen[b] = t
        assert len(seen) == nblk * nblk

    @given(st.integers(1, 32), st.integers(1, 16), st.integers(1, 100))
    @settings(max_examples=30)
    def test_owner_in_range(self, p, blk, n):
        g = BlockCyclic(p, block=blk)
        ii = np.arange(min(n, 50))
        own = g.owner_vec(ii, ii[::-1])
        assert own.min() >= 0 and own.max() < p
