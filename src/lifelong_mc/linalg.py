"""Dense linear algebra shared by the streaming completion algorithms.

Everything here is a pure function of plain float64 numpy arrays. Columns
are the unit of interest throughout; partial observation of a column is
expressed by an explicit row-index subset rather than a mask.
"""

from dataclasses import dataclass

import numpy as np

# Relative singular-value cutoff used for every rank decision in the package.
RANK_TOL = 1e-10


class RankDeficientError(ValueError):
    """A subsampled basis lost column rank; the sample set is too small."""


def require_finite(values, column):
    """values, once every entry is known to be finite; otherwise a
    ValueError naming the stream column they were read from."""
    if not np.isfinite(values).all():
        raise ValueError(f"column {column}: non-finite entry read")
    return values


@dataclass
class IndexSet:
    """Row indices observed for one column, kept in draw order.

    Duplicates are allowed exactly when ``with_replacement`` is set; a
    without-replacement set must be distinct. Indices live in ``[0, m)``.
    """

    indices: np.ndarray
    m: int
    with_replacement: bool = False

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp).ravel()
        if idx.size == 0:
            raise ValueError("index set must be non-empty")
        if self.m < 1:
            raise ValueError("ambient dimension must be positive")
        if idx.min() < 0 or idx.max() >= self.m:
            raise ValueError(f"indices must lie in [0, {self.m})")
        if not self.with_replacement and np.unique(idx).size != idx.size:
            raise ValueError("duplicate indices in a without-replacement set")
        self.indices = idx

    def __len__(self):
        return int(self.indices.size)

    @classmethod
    def _drawn(cls, indices, m, with_replacement):
        """An index set straight from a draw that keeps every index in
        range (and distinct without replacement), so the checks are skipped."""
        self = object.__new__(cls)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.m = m
        self.with_replacement = with_replacement
        return self


def sample_indices(m, d, with_replacement, rng, dedup=False):
    """Draw d row indices uniformly from [0, m).

    With replacement the draw order is kept and duplicates are legal; the
    optional dedup pass collapses them afterwards (so the effective set can
    be smaller than d). Without replacement requires d <= m.
    """
    if not 1 <= d <= (m if not with_replacement else max(m, d)):
        raise ValueError(f"need 1 <= d <= m, got d={d}, m={m}")
    if with_replacement:
        idx = rng.integers(0, m, size=d)
        if dedup:
            return IndexSet._drawn(np.unique(idx), m, with_replacement=False)
        return IndexSet._drawn(idx, m, with_replacement=True)
    if d > m:
        raise ValueError(f"cannot draw {d} distinct indices from {m} rows")
    return IndexSet._drawn(rng.choice(m, size=d, replace=False), m, with_replacement=False)


def _mgs_residual(basis, v):
    """Component of v orthogonal to an orthonormal basis.

    One projection pass plus one reorthogonalization pass; the second pass
    keeps the residual orthogonal to working precision even when v is nearly
    inside the span.
    """
    y = np.array(v, dtype=float, copy=True)
    if basis.shape[1]:
        y -= basis @ (basis.T @ y)
        y -= basis @ (basis.T @ y)
    return y


def orthonormalize(cols, tol=RANK_TOL, scale=None):
    """Orthonormal basis for the column span, by modified Gram-Schmidt.

    Columns are processed in order and a column is dropped when its residual
    against the basis built so far is at most tol times the largest singular
    value of the input (scale, computed here unless the caller has it), so
    the number of returned columns matches numerical_rank on benign inputs.
    An all-zero input yields a basis with zero columns.
    """
    A = np.asarray(cols, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a 2-d array of columns")
    m, n = A.shape
    basis = np.zeros((m, 0))
    if n == 0 or not np.any(A):
        return basis
    if scale is None:
        scale = float(np.linalg.norm(A, 2))
    for j in range(n):
        y = _mgs_residual(basis, A[:, j])
        nrm = float(np.linalg.norm(y))
        if nrm > tol * scale:
            basis = np.column_stack([basis, y / nrm])
    return basis


def extend_basis(basis, v, tol=RANK_TOL):
    """Append one column to an orthonormal basis if it adds a direction.

    Returns the (possibly unchanged) basis; existing columns are never
    touched. The drop decision is relative to the column scale.
    """
    y = _mgs_residual(basis, v)
    nrm = float(np.linalg.norm(y))
    vn = float(np.linalg.norm(v))
    scale = max(vn, 1.0) if basis.shape[1] else vn
    if nrm > tol * scale:
        return np.column_stack([basis, y / nrm])
    return basis


def project_residual(v, basis_rows):
    """l2 distance from v to the column space of basis_rows.

    basis_rows need not be orthonormal or full rank; an orthonormal basis of
    its span is formed internally. An empty basis gives ||v||.
    """
    v = np.asarray(v, dtype=float)
    B = np.asarray(basis_rows, dtype=float)
    if B.ndim != 2 or B.shape[0] != v.shape[0]:
        raise ValueError("basis_rows must be 2-d with rows matching v")
    if B.shape[1] == 0:
        return float(np.linalg.norm(v))
    q = orthonormalize(B)
    return float(np.linalg.norm(_mgs_residual(q, v)))


def subsampled_complete(basis_full, basis_rows, v_rows, tol=RANK_TOL):
    """Complete a column from its sampled entries.

    Solves the least-squares system basis_rows @ c = v_rows (via orthogonal
    factorization, never an explicit inverse) and returns basis_full @ c.
    basis_rows must keep full column rank after subsampling; repeated rows
    from with-replacement sampling stay in the system and weight the fit.
    """
    full = np.asarray(basis_full, dtype=float)
    rows = np.asarray(basis_rows, dtype=float)
    v = np.asarray(v_rows, dtype=float)
    if full.ndim != 2 or rows.ndim != 2 or full.shape[1] != rows.shape[1]:
        raise ValueError("basis_full and basis_rows must agree on column count")
    if rows.shape[0] != v.shape[0]:
        raise ValueError("v_rows length must match basis_rows row count")
    k = full.shape[1]
    if k == 0:
        raise ValueError("cannot complete against an empty basis")
    rank = numerical_rank(rows, tol)
    if rank < k:
        raise RankDeficientError(
            f"sampled basis has rank {rank} < {k} columns over "
            f"{rows.shape[0]} sampled rows; increase the sample count"
        )
    coef, _, _, _ = np.linalg.lstsq(rows, v, rcond=None)
    return full @ coef


def principal_angle(U, V):
    """Largest angle from a direction in span(U) to the subspace span(V).

    Asymmetric by design: the result is 0 whenever span(U) is contained in
    span(V), even if V is larger. Computed as arccos of the smallest singular
    value of V^T U; if U has more columns than V some direction of U is
    orthogonal to all of V and the angle is pi/2. Both inputs must be
    orthonormal bases over the same row space.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.ndim != 2 or V.ndim != 2 or U.shape[0] != V.shape[0]:
        raise ValueError("bases must be 2-d with matching row counts")
    if U.shape[1] == 0 or V.shape[1] == 0:
        raise ValueError("bases must have at least one column")
    if U.shape[1] > V.shape[1]:
        return float(np.pi / 2)
    s = np.linalg.svd(V.T @ U, compute_uv=False)
    smin = float(np.clip(s[-1], 0.0, 1.0))
    return float(np.arccos(smin))


def incoherence(U, orth_tol=1e-8):
    """Coherence of an orthonormal basis: (m/r) times the largest squared
    row norm. Ranges over [1, m/r]; 1 is maximally spread, m/r is spiky."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] == 0:
        raise ValueError("expected a basis with at least one column")
    m, r = U.shape
    gram_err = np.max(np.abs(U.T @ U - np.eye(r)))
    if gram_err > orth_tol:
        raise ValueError(f"basis is not orthonormal (gram error {gram_err:.2e})")
    return float(m / r * np.max(np.sum(U * U, axis=1)))


def numerical_rank(A, tol=RANK_TOL):
    """Count of singular values above tol times the largest one."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or min(A.shape) == 0:
        return 0
    return spectrum_rank(np.linalg.svd(A, compute_uv=False), tol)


def spectrum_rank(s, tol=RANK_TOL):
    """numerical_rank from the descending singular values s."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))
