"""Dense complex linear-algebra kernel.

All functions operate on 2-D complex ``numpy`` arrays and also on
(..., m, n) stacks of them, one LAPACK call for the whole stack; a check
that fails on any slice raises as it would for that slice alone. Subspaces
are represented by their semi-unitary basis matrices (columns orthonormal).
Everything here is deterministic: the same input always produces the same
basis, which keeps whole Monte-Carlo trials reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, NumericalFailure, RankDeficient

# Singular value s_i counts as nonzero iff s_i > RANK_REL_TOL * s_max.
# Safe in double precision for the stacked matrices this simulator builds.
RANK_REL_TOL = 1e-10
# Largest relative asymmetry herm_eig accepts as rounding noise.
HERM_TOL = 1e-9


def _as_cmatrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or min(M.shape) < 1:
        raise ContractViolation(f"expected a 2-D matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):  # finite in both real and imaginary parts
        raise ContractViolation("matrix has non-finite entries")
    return M


def svd(M, full_matrices: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD, thin or full (square U), with non-convergence translated to
    :class:`NumericalFailure`; a (..., m, n) stack is decomposed slice by slice in one call."""
    M = _as_cmatrix(M)
    try:
        return np.linalg.svd(M, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("svd", M.shape[-2], M.shape[-1]) from exc


def matrix_rank(singular_values: np.ndarray):
    """Numerical rank from descending singular values, one per slice of a stack."""
    return np.sum(singular_values > RANK_REL_TOL * singular_values[..., :1], axis=-1)


def complement_projector(X) -> np.ndarray:
    """Orthogonal projector onto the complement of span(X), per slice of a stack:
    I - P, elementwise, with P = X (X^H X)^-1 X^H."""
    X = _as_cmatrix(X)
    if np.any(matrix_rank(svd(X, full_matrices=False)[1]) < X.shape[-1]):
        raise RankDeficient(f"projector input of shape {X.shape[-2:]} is rank deficient")
    X_h = X.conj().swapaxes(-1, -2)
    return np.eye(X.shape[-2], dtype=complex) - X @ np.linalg.solve(X_h @ X, X_h)


def herm_eig(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of each Hermitian matrix of a stack, eigenvalues descending."""
    M = _as_cmatrix(M)
    if M.shape[-2] != M.shape[-1]:
        raise ContractViolation(f"herm_eig needs a square matrix, got {M.shape}")
    M_h = M.conj().swapaxes(-1, -2)
    asym = np.linalg.norm(M - M_h, axis=(-2, -1))
    bad = asym > HERM_TOL * np.maximum(1.0, np.linalg.norm(M, axis=(-2, -1)))
    if np.any(bad):
        raise ContractViolation(f"matrix is not Hermitian (asymmetry {asym[bad].flat[0]:.3e})")
    try:
        w, V = np.linalg.eigh((M + M_h) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigh", M.shape[-2], M.shape[-1]) from exc
    return w[..., ::-1], V[..., ::-1]


def psd_eigvals(G) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each PSD matrix in G, rounding
    noise below zero clipped: the eigenvalue kernel behind every log-det."""
    return np.clip(np.linalg.eigvalsh((G + G.conj().swapaxes(-1, -2)) / 2.0), 0.0, None)


def orthonormalize(M) -> np.ndarray:
    """M (M^H M)^(-1/2) per slice: the closest semi-unitary matrix with the same span."""
    U, s, Vh = svd(M, full_matrices=False)
    if np.any(matrix_rank(s) < Vh.shape[-1]):
        raise RankDeficient(f"cannot orthonormalize rank-deficient {np.shape(M)[-2:]} matrix")
    return U @ Vh


def herm_inv_sqrt(M) -> np.ndarray:
    """(M)^(-1/2) for Hermitian positive definite M, per slice of a stack."""
    w, V = herm_eig(M)
    if np.any(w[..., -1] <= 0):
        raise RankDeficient("inverse square root of a singular matrix")
    return (V * (1.0 / np.sqrt(w))[..., None, :]) @ V.conj().swapaxes(-1, -2)


def norm_sq(X: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a complex (..., m, n) stack, bit for bit
    ``np.linalg.norm(slice) ** 2``: one BLAS dot per slice, its root, then a Python
    power (a stacked sum would move last bits)."""
    x = X.reshape(-1, 1, X.shape[-2] * X.shape[-1])
    dots = x.real @ x.real.swapaxes(-1, -2) + x.imag @ x.imag.swapaxes(-1, -2)
    return np.reshape([s ** 2 for s in np.sqrt(dots).ravel().tolist()], X.shape[:-2])


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian entries with unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
