import numpy as np
import pytest

from giasim.errors import ContractViolation, RankDeficient
from giasim.linalg import (
    complement_projector,
    complex_gaussian,
    herm_eig,
    norm_sq,
    orthonormalize,
    svd,
)
from oracles import chordal_distance_sq, is_semi_unitary, left_null_space, projector

rng = np.random.default_rng(101)


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(3), full_matrices=False)
        assert np.allclose(s, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 2.0]), full_matrices=False)
        assert np.allclose(s, [3.0, 2.0])

    def test_reconstruction(self):
        M = complex_gaussian(rng, (4, 2))
        U, s, Vh = svd(M, full_matrices=False)
        err = np.linalg.norm(U @ np.diag(s) @ Vh - M) / np.linalg.norm(M)
        assert err < 1e-10
        assert is_semi_unitary(U) and is_semi_unitary(Vh.conj().T)
        U_full, s_full, _ = svd(M, full_matrices=True)
        assert U_full.shape == (4, 4) and is_semi_unitary(U_full)
        assert np.array_equal(s_full, s)

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolation):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]), full_matrices=True)


def test_norm_sq_equals_each_slice_norm_squared():
    # bit for bit: the RINR and the emulated distortions were defined by the
    # 2-D np.linalg.norm; a stacked einsum sum differs from it in last bits
    for shape in [(2, 2), (300, 2, 2), (2, 3, 4, 3, 1)]:
        X = complex_gaussian(rng, shape)
        sq = norm_sq(X)
        assert sq.shape == shape[:-2]
        for idx in np.ndindex(shape[:-2]):
            assert sq[idx] == np.linalg.norm(X[idx]) ** 2


class TestLeftNullSpace:
    def test_axis_case(self):
        N = left_null_space(np.array([[1.0], [0.0]]))
        assert N.shape == (2, 1)
        assert abs(abs(N[1, 0]) - 1.0) < 1e-12 and abs(N[0, 0]) < 1e-12

    def test_full_rank_raises(self):
        with pytest.raises(ContractViolation, match="full row rank"):
            left_null_space(np.eye(3))

    def test_constructed_rank_two(self):
        # rank forced to 2 by outer-product construction
        a, b = complex_gaussian(rng, (4, 1)), complex_gaussian(rng, (3, 1))
        c, d = complex_gaussian(rng, (4, 1)), complex_gaussian(rng, (3, 1))
        M = a @ b.conj().T + c @ d.conj().T
        N = left_null_space(M)
        assert N.shape == (4, 2)
        assert np.linalg.norm(N.conj().T @ M) < 1e-9 * max(1.0, np.linalg.norm(M))

    def test_null_property_random(self):
        for _ in range(20):
            M = complex_gaussian(rng, (6, 3))
            N = left_null_space(M)
            assert np.linalg.norm(N.conj().T @ M) < 1e-9 * max(1.0, np.linalg.norm(M))
            assert is_semi_unitary(N)

    def test_stack_of_one_rank_equals_each_slice(self):
        M = complex_gaussian(rng, (3, 2, 6, 3))
        N = left_null_space(M)
        assert N.shape == (3, 2, 6, 3)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(N[idx], left_null_space(M[idx]))

    def test_stack_of_ragged_ranks_raises(self):
        M = complex_gaussian(rng, (2, 6, 3))
        M[1, :, 2] = M[1, :, 0]  # slice 1 has rank 2, slice 0 rank 3
        with pytest.raises(ContractViolation):
            left_null_space(M)


class TestProjectors:
    def test_axis(self):
        P, Pp = projector(np.array([[1.0], [0.0]])), complement_projector(np.array([[1.0], [0.0]]))
        assert np.allclose(P, np.diag([1.0, 0.0]))
        assert np.allclose(Pp, np.diag([0.0, 1.0]))

    def test_semi_unitary_shortcut(self):
        X = orthonormalize(complex_gaussian(rng, (5, 2)))
        P = np.eye(5) - complement_projector(X)
        assert np.allclose(P, X @ X.conj().T, atol=1e-12)

    def test_defining_identity(self):
        X = complex_gaussian(rng, (5, 2))
        P, Pp = projector(X), complement_projector(X)
        assert np.linalg.norm(P @ X - X) < 1e-10
        assert np.linalg.norm(P @ P - P) < 1e-10
        assert np.linalg.norm(P - P.conj().T) < 1e-10
        # complement is constructed elementwise: the sum is exactly the identity
        assert np.array_equal(P + Pp, np.eye(5, dtype=complex))

    def test_rank_deficient(self):
        X = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankDeficient):
            complement_projector(X)


class TestHermEig:
    def test_diagonal_descending(self):
        w, _ = herm_eig(np.diag([2.0, 5.0]))
        assert np.allclose(w, [5.0, 2.0])

    def test_rank_one(self):
        v = complex_gaussian(rng, (4, 1))
        v = v / np.linalg.norm(v)
        w, _ = herm_eig(v @ v.conj().T)
        assert np.allclose(w, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_cross_check_with_svd(self):
        A = complex_gaussian(rng, (5, 3))
        w, _ = herm_eig(A.conj().T @ A)
        s = np.linalg.svd(A, compute_uv=False)
        assert np.allclose(w, s ** 2, rtol=1e-9, atol=1e-9)

    def test_trace_conservation(self):
        for _ in range(10):
            B = complex_gaussian(rng, (6, 6))
            M = B + B.conj().T
            w, V = herm_eig(M)
            assert abs(w.sum() - np.trace(M).real) < 1e-9 * max(1.0, abs(np.trace(M).real))
            assert np.linalg.norm(V @ np.diag(w) @ V.conj().T - M) < 1e-8

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractViolation):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestChordalDistance:
    def test_self_distance_zero(self):
        V = orthonormalize(complex_gaussian(rng, (6, 2)))
        assert chordal_distance_sq(V, V) == 0.0

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        e2 = np.array([[0.0], [1.0]], dtype=complex)
        assert abs(chordal_distance_sq(e1, e2) - 1.0) < 1e-12

    def test_rotation_invariance_and_symmetry(self):
        V1 = orthonormalize(complex_gaussian(rng, (8, 2)))
        V2 = orthonormalize(complex_gaussian(rng, (8, 2)))
        Q = orthonormalize(complex_gaussian(rng, (2, 2)))
        assert abs(chordal_distance_sq(V1, V1 @ Q)) < 1e-10
        assert abs(chordal_distance_sq(V1, V2) - chordal_distance_sq(V2, V1)) < 1e-10
        assert abs(chordal_distance_sq(V1 @ Q, V2) - chordal_distance_sq(V1, V2)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            chordal_distance_sq(np.eye(3), np.eye(4))


class TestOrthonormalize:
    def test_idempotent_on_semi_unitary(self):
        V = orthonormalize(complex_gaussian(rng, (6, 2)))
        assert np.allclose(orthonormalize(V), V, atol=1e-12)

    def test_scaling_removed(self):
        M = np.array([[2.0], [0.0]], dtype=complex)
        assert np.allclose(orthonormalize(M), [[1.0], [0.0]])

    def test_span_preserved(self):
        M = complex_gaussian(rng, (8, 2))
        Q = orthonormalize(M)
        assert is_semi_unitary(Q)
        # same span: projection of original columns is lossless
        P = projector(Q)
        assert np.linalg.norm(P @ M - M) < 1e-9
        assert chordal_distance_sq(Q, orthonormalize(M)) < 1e-9

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            orthonormalize(np.ones((4, 2), dtype=complex))
