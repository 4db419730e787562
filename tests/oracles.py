"""Slow reference implementations used to cross-check the library.

Everything here favors clarity over speed: textbook Gram-Schmidt, dense
pseudoinverses, and brute-force subset enumeration. Tests compare the
library's fast paths against these within float tolerances.
"""

from itertools import combinations

import numpy as np

from lifelong_mc.linalg import (
    RankDeficientError,
    _mgs_residual,
    extend_basis,
    orthonormalize,
    sample_indices,
    subsampled_complete,
)
from lifelong_mc.tracker import ABSORBED, REPRESENTED, residual_threshold


def gram_schmidt(cols, tol=1e-10):
    """Classical Gram-Schmidt with explicit loops, dropping dependent
    columns at tol relative to the largest singular value."""
    cols = np.asarray(cols, dtype=float)
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0))
    scale = np.linalg.norm(cols, 2)
    if scale == 0.0:
        return np.zeros((cols.shape[0], 0))
    basis = []
    for j in range(cols.shape[1]):
        v = cols[:, j].copy()
        for q in basis:
            v = v - np.dot(q, cols[:, j]) * q
        # second pass for numerical hygiene, same as any careful textbook
        for q in basis:
            v = v - np.dot(q, v) * q
        norm = np.linalg.norm(v)
        if norm > tol * scale:
            basis.append(v / norm)
    if not basis:
        return np.zeros((cols.shape[0], 0))
    return np.column_stack(basis)


def residual_normal_equations(basis, v):
    """Projection residual via explicit normal equations with a dense
    pseudoinverse. Reference for project_residual."""
    basis = np.asarray(basis, dtype=float)
    v = np.asarray(v, dtype=float)
    if basis.size == 0 or basis.shape[1] == 0:
        return float(np.linalg.norm(v))
    G = basis.T @ basis
    proj = basis @ (np.linalg.pinv(G) @ (basis.T @ v))
    return float(np.linalg.norm(v - proj))


def complete_dense_pinv(basis_full, basis_rows, v_rows):
    """Completion by dense pseudoinverse of the sampled basis. Reference
    for subsampled_complete."""
    coeffs = np.linalg.pinv(np.asarray(basis_rows, dtype=float)) @ np.asarray(
        v_rows, dtype=float
    )
    return np.asarray(basis_full, dtype=float) @ coeffs


def in_span(cols, v, tol):
    """Exact-arithmetic span membership up to tol, by residual."""
    return residual_normal_equations(cols, v) <= tol * max(np.linalg.norm(v), 1e-300)


def first_sparse_support_bruteforce(B, v, sparsity, zero_tol):
    """Smallest-then-lexicographic-first subset of columns of B that fits v
    exactly up to zero_tol, as (support, coefficients), or None.

    Mirrors the production search contract with zero cleverness: try sizes
    0, 1, ..., sparsity; within each size walk subsets in lexicographic
    order; accept the first whose least-squares residual is within
    zero_tol times the norm of v.
    """
    B = np.asarray(B, dtype=float)
    v = np.asarray(v, dtype=float)
    vn = np.linalg.norm(v)
    if vn == 0.0:
        return np.array([], dtype=int), np.array([])
    n = B.shape[1]
    for size in range(1, min(sparsity, n) + 1):
        for subset in combinations(range(n), size):
            sub = B[:, list(subset)]
            coeffs, *_ = np.linalg.lstsq(sub, v, rcond=None)
            if np.linalg.norm(sub @ coeffs - v) <= zero_tol * vn:
                return np.array(subset, dtype=int), coeffs
    return None


def principal_angle_definition(U, V):
    """Largest principal angle from the definitional max-min formulation,
    estimated by dense SVD of the cross-Gram matrix."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape[1] > V.shape[1]:
        return np.pi / 2
    if U.shape[1] == 0:
        return 0.0
    s = np.linalg.svd(V.T @ U, compute_uv=False)
    return float(np.arccos(np.clip(s[-1], 0.0, 1.0)))


def stream_reference(M, cfg):
    """The tracker's single pass with nothing carried between columns but
    the basis and the sample set: every column orthonormalizes the sampled
    basis rows afresh, and completion re-checks their rank. Same RNG draws
    as run_stream. M must already have unit-norm columns.

    Returns (decisions, residuals, thresholds, estimates, failed_at):
    per-column lists up to the first column whose completion hit a
    rank-deficient sampled basis (failed_at, or None when every column
    went through), and estimates as an m x (columns done) array.
    """
    M = np.asarray(M, dtype=float)
    m, n = M.shape
    rng = np.random.default_rng(cfg.seed)

    def draw():
        return sample_indices(
            m, cfg.d, cfg.with_replacement, rng, dedup=cfg.dedup_samples
        ).indices

    idx = draw()
    basis = np.zeros((m, 0))
    decisions, residuals, thresholds, estimates = [], [], [], []
    failed_at = None
    for t in range(n):
        v = M[idx, t]
        k = basis.shape[1]
        if k:
            resid = float(np.linalg.norm(_mgs_residual(orthonormalize(basis[idx, :]), v)))
        else:
            resid = float(np.linalg.norm(v))
        cutoff = max(residual_threshold(k, cfg, m), cfg.zero_floor * float(np.linalg.norm(v)))
        if resid > cutoff:
            est = M[:, t].copy()
            basis = extend_basis(basis, est)
            idx = draw()
            decision = ABSORBED
        else:
            if k:
                try:
                    est = subsampled_complete(basis, basis[idx, :], v)
                except RankDeficientError:
                    failed_at = t
                    break
            else:
                est = np.zeros(m)
            decision = REPRESENTED
        decisions.append(decision)
        residuals.append(resid)
        thresholds.append(cutoff)
        estimates.append(est)
    estimates = np.column_stack(estimates) if estimates else np.zeros((m, 0))
    return decisions, residuals, thresholds, estimates, failed_at
