"""Tests for strength of connection and PMIS coarsening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amg.coarsen import pmis_coarsen
from repro.amg.strength import strength_of_connection
from repro.formats.csr import CSRMatrix
from repro.matrices import anisotropic_diffusion_2d, poisson2d

from conftest import random_csr, random_spd_csr


class TestStrengthRows:
    """``rows=`` builds only the given rows, bytewise those of the full S:
    the re-setup engine splices them into a level's cached strength."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        theta=st.sampled_from([0.0, 0.25, 0.9]),
        max_row_sum=st.sampled_from([0.8, 1.0]),
        spd=st.booleans(),
    )
    def test_rows_match_full_matrix(self, seed, n, theta, max_row_sum, spd):
        # Mixed signs, zero diagonals and sign-fallback rows (random_csr),
        # as well as M-matrix-like rows (random_spd_csr).
        a = random_spd_csr(n, 0.2, seed) if spd else random_csr(n, n, 0.3, seed)
        full = strength_of_connection(a, theta, max_row_sum)
        rows = np.flatnonzero(np.random.default_rng(seed).random(n) < 0.4)
        got = strength_of_connection(a, theta, max_row_sum, rows=rows)
        want = full.extract_rows(rows)
        assert got.shape == (rows.shape[0], n)
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


class TestStrength:
    def test_poisson_all_neighbours_strong(self):
        a = poisson2d(8)
        s = strength_of_connection(a, 0.25)
        # every off-diagonal of the 5-pt stencil is equally strong
        off = a.nnz - a.nrows
        assert s.nnz == off

    def test_threshold_filters(self):
        # row 0: couplings -4 and -1 with theta=0.5 -> only -4 survives
        a = CSRMatrix.from_dense(
            np.array([[10.0, -4.0, -1.0], [-4.0, 10.0, 0.0], [-1.0, 0.0, 10.0]])
        )
        s = strength_of_connection(a, 0.5)
        d = s.to_dense()
        assert d[0, 1] == 1 and d[0, 2] == 0

    def test_anisotropy_directional(self):
        a = anisotropic_diffusion_2d(8, epsilon=0.01)
        s = strength_of_connection(a, 0.25)
        # strong couplings only along x: about 2 per interior row
        assert s.nnz < a.nnz - a.nrows
        assert s.nnz >= 2 * (8 - 2)

    def test_diagonal_never_strong(self):
        a = random_spd_csr(20, 0.2, seed=1)
        s = strength_of_connection(a, 0.1)
        rows = s.row_ids()
        assert not np.any(rows == s.indices)

    def test_theta_zero_keeps_all_couplings(self):
        a = poisson2d(6)
        s0 = strength_of_connection(a, 0.0)
        assert s0.nnz == a.nnz - a.nrows

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            strength_of_connection(poisson2d(4), theta=1.5)

    def test_requires_square(self):
        a = CSRMatrix.zeros((3, 4))
        with pytest.raises(ValueError):
            strength_of_connection(a)

    def test_max_row_sum_drops_dominant_rows(self):
        # A strongly diagonally dominant row is dropped from strength.
        d = np.array([[100.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        a = CSRMatrix.from_dense(d)
        s = strength_of_connection(a, 0.25, max_row_sum=0.8)
        assert s.to_dense()[0].sum() == 0  # row 0 dominated -> no strength

    def test_positive_offdiagonal_fallback(self):
        # all-positive couplings: magnitude fallback still finds strength
        d = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = strength_of_connection(CSRMatrix.from_dense(d), 0.25)
        assert s.nnz == 2


class TestPMIS:
    def _check_valid_splitting(self, a, res):
        n = a.nrows
        assert np.all((res.cf_marker == 1) | (res.cf_marker == -1))
        assert set(res.c_points) | set(res.f_points) == set(range(n))
        assert not (set(res.c_points) & set(res.f_points))

    def test_poisson_coverage_and_independence(self):
        a = poisson2d(12)
        s = strength_of_connection(a, 0.25)
        res = pmis_coarsen(s)
        self._check_valid_splitting(a, res)
        # C points form an independent set in the symmetrised strength graph
        sd = s.to_dense() + s.to_dense().T
        c = res.c_points
        assert not np.any(sd[np.ix_(c, c)] > 0)

    def test_every_f_point_near_a_c_point(self):
        a = poisson2d(10)
        s = strength_of_connection(a, 0.25)
        res = pmis_coarsen(s)
        sd = (s.to_dense() + s.to_dense().T) > 0
        cset = np.zeros(a.nrows, dtype=bool)
        cset[res.c_points] = True
        for f in res.f_points:
            # F points with strong couplings must touch a C point
            if sd[f].any():
                assert cset[sd[f]].any()

    def test_isolated_nodes_become_f(self):
        s = CSRMatrix.zeros((5, 5))
        res = pmis_coarsen(s)
        assert res.n_coarse == 0
        assert len(res.f_points) == 5

    def test_deterministic_given_seed(self):
        a = poisson2d(9)
        s = strength_of_connection(a, 0.25)
        r1 = pmis_coarsen(s, seed=42)
        r2 = pmis_coarsen(s, seed=42)
        np.testing.assert_array_equal(r1.cf_marker, r2.cf_marker)

    def test_different_seed_may_differ_but_valid(self):
        a = poisson2d(9)
        s = strength_of_connection(a, 0.25)
        for seed in range(3):
            res = pmis_coarsen(s, seed=seed)
            self._check_valid_splitting(a, res)

    def test_empty_matrix(self):
        res = pmis_coarsen(CSRMatrix.zeros((0, 0)))
        assert res.n_coarse == 0 and res.rounds == 0

    def test_coarsening_reduces_size(self):
        a = poisson2d(16)
        s = strength_of_connection(a, 0.25)
        res = pmis_coarsen(s)
        assert 0 < res.n_coarse < a.nrows
        # For the 5-pt stencil PMIS keeps roughly 1/4 - 1/2 of the points.
        assert 0.15 * a.nrows < res.n_coarse < 0.6 * a.nrows


@given(st.integers(4, 24), st.integers(0, 9))
@settings(max_examples=20, deadline=None)
def test_property_pmis_partition_is_total(n, seed):
    a = random_spd_csr(n, 0.3, seed=seed)
    s = strength_of_connection(a, 0.25)
    res = pmis_coarsen(s, seed=seed)
    assert len(res.c_points) + len(res.f_points) == n
    sd = (s.to_dense() + s.to_dense().T) > 0
    c = res.c_points
    assert not np.any(sd[np.ix_(c, c)])
