"""Seeded instance generators, noise injection, and matrix text I/O.

Every generator is deterministic in its seed: two calls with the same
arguments return bitwise-identical instances. Generated columns are unit
l2 norm except for the adversarial block construction, which keeps the
caller's block scales verbatim.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import numerical_rank, orthonormalize


class MatrixFormatError(ValueError):
    """Malformed matrix text file."""


@dataclass
class NoiseSpec:
    """What to add to (or substitute into) the clean matrix.

    kind is one of "none", "bounded" (every column moved by exactly eps in
    a uniformly random direction) or "sparse_columns" (s0 columns replaced
    by unit Gaussian vectors; positions drawn without replacement unless
    given explicitly).
    """

    kind: str = "none"
    eps: float = 0.0
    s0: int = 0
    positions: list | None = None

    def __post_init__(self):
        if self.kind not in ("none", "bounded", "sparse_columns"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.eps < 0:
            raise ValueError("eps must be non-negative")
        if self.s0 < 0:
            raise ValueError("s0 must be non-negative")
        if self.kind == "bounded" and self.eps == 0:
            raise ValueError("bounded noise needs eps > 0")


@dataclass
class Instance:
    """A synthetic stream: clean matrix L, observed matrix M, provenance."""

    L: np.ndarray
    M: np.ndarray
    rank: int
    noise_support: list = field(default_factory=list)
    column_basis: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def shape(self):
        return self.L.shape


def _unit_columns(A):
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
        raise ValueError("cannot normalize a zero column")
    return A / norms


def gen_gaussian_lowrank(m, n, r, seed):
    """Random rank-r product instance: L = XY with Gaussian factors,
    columns normalized to unit norm. Regenerates on the measure-zero event
    that the product loses rank."""
    if not 1 <= r <= min(m, n):
        raise ValueError(f"need 1 <= r <= min(m, n), got r={r}")
    rng = np.random.default_rng(seed)
    while True:
        X = rng.standard_normal((m, r))
        Y = rng.standard_normal((r, n))
        L = X @ Y
        if np.any(np.linalg.norm(L, axis=0) == 0):
            continue
        L = _unit_columns(L)
        if numerical_rank(L) == r:
            break
    basis = orthonormalize(X)
    meta = {"generator": "gaussian", "m": m, "n": n, "r": r, "seed": seed}
    return Instance(L=L, M=L.copy(), rank=r, column_basis=basis, metadata=meta)


# Block widths of the cumulative-direction stream: four short segments that
# each introduce one new direction, then a long tail on the full span.
CUMULATIVE_WIDTHS = (200, 200, 200, 200, 1200)


def gen_cumulative(m, seed, widths=CUMULATIVE_WIDTHS):
    """Piecewise-constant stream over a growing subspace.

    Draws r = len(widths) Gaussian base vectors u_1..u_r in R^m; block j
    repeats the normalized partial sum u_1 + ... + u_j for widths[j] columns.
    The column space therefore grows by one direction at each block boundary.
    """
    r = len(widths)
    if r < 1 or m < r:
        raise ValueError("need at least one block and m >= number of blocks")
    rng = np.random.default_rng(seed)
    while True:
        base = rng.standard_normal((m, r))
        sums = np.cumsum(base, axis=1)
        if np.any(np.linalg.norm(sums, axis=0) == 0):
            continue
        sums = _unit_columns(sums)
        if numerical_rank(sums) == r:
            break
    cols = np.repeat(np.arange(r), widths)
    L = sums[:, cols]
    meta = {
        "generator": "cumulative",
        "m": m,
        "n": int(sum(widths)),
        "r": r,
        "widths": tuple(int(w) for w in widths),
        "seed": seed,
    }
    return Instance(
        L=L, M=L.copy(), rank=r, column_basis=orthonormalize(sums), metadata=meta
    )


def gen_mixture(m, per_subspace, n_subspaces, subspace_dim, seed):
    """Union-of-subspaces stream.

    One m x (n_subspaces * subspace_dim) Gaussian frame is orthonormalized
    and split into disjoint groups, so the subspaces are independent by
    construction. Each subspace contributes per_subspace unit-norm columns
    with Gaussian coefficients, grouped in arrival order; metadata records
    the membership of every column.
    """
    total_dim = n_subspaces * subspace_dim
    if total_dim > m:
        raise ValueError("total subspace dimension exceeds the ambient dimension")
    if per_subspace < 1 or n_subspaces < 1 or subspace_dim < 1:
        raise ValueError("counts and dimensions must be positive")
    rng = np.random.default_rng(seed)
    while True:
        frame = orthonormalize(rng.standard_normal((m, total_dim)))
        if frame.shape[1] == total_dim:
            break
    blocks = []
    membership = []
    for g in range(n_subspaces):
        basis = frame[:, g * subspace_dim : (g + 1) * subspace_dim]
        coeffs = rng.standard_normal((subspace_dim, per_subspace))
        cols = basis @ coeffs
        while np.any(np.linalg.norm(cols, axis=0) == 0):
            coeffs = rng.standard_normal((subspace_dim, per_subspace))
            cols = basis @ coeffs
        blocks.append(_unit_columns(cols))
        membership.extend([g] * per_subspace)
    L = np.hstack(blocks)
    meta = {
        "generator": "mixture",
        "m": m,
        "n": L.shape[1],
        "r": total_dim,
        "n_subspaces": n_subspaces,
        "subspace_dim": subspace_dim,
        "per_subspace": per_subspace,
        "membership": membership,
        "seed": seed,
    }
    return Instance(
        L=L, M=L.copy(), rank=total_dim, column_basis=frame, metadata=meta
    )


def gen_lower_bound(m, target_coherence, r, block_scales, seed=0):
    """Adversarial block-diagonal instance with prescribed coherence.

    The column space is spanned by r disjoint flat indicator directions of
    width l = floor(m / (target_coherence * r)); block k of L equals
    block_scales[k] times the rank-one product of its direction. Columns are
    left at the construction's own scale (a zero scale gives zero columns),
    so unlike the stochastic generators they are not unit norm. The realized
    coherence of the column space is exactly m / (r * l).
    """
    if len(block_scales) != r:
        raise ValueError("block_scales must have length r")
    width = int(np.floor(m / (target_coherence * r)))
    if width < 1:
        raise ValueError("coherence target too large: blocks would be empty")
    if r * width > m:
        raise ValueError("blocks exceed the ambient dimension")
    U = np.zeros((m, r))
    L = np.zeros((m, m))
    for k in range(r):
        rows = slice(k * width, (k + 1) * width)
        U[rows, k] = 1.0 / np.sqrt(width)
        L[rows, rows] = block_scales[k] / width
    meta = {
        "generator": "lower_bound",
        "m": m,
        "n": m,
        "r": r,
        "block_width": width,
        "block_scales": tuple(float(b) for b in block_scales),
        "coherence": m / (r * width),
        "seed": seed,
    }
    rank = numerical_rank(L)
    return Instance(L=L, M=L.copy(), rank=rank, column_basis=U, metadata=meta)


def apply_noise(inst, spec, seed):
    """Return a new Instance whose M is the noisy view of inst.L."""
    rng = np.random.default_rng(seed)
    L = inst.L
    m, n = L.shape
    if spec.kind == "none":
        M = L.copy()
        support = []
    elif spec.kind == "bounded":
        W = rng.standard_normal((m, n))
        norms = np.linalg.norm(W, axis=0)
        while np.any(norms == 0):
            W = rng.standard_normal((m, n))
            norms = np.linalg.norm(W, axis=0)
        M = L + spec.eps * (W / norms)
        support = []
    else:
        if spec.s0 > n:
            raise ValueError("more corrupted columns than columns")
        if spec.positions is not None:
            support = sorted(int(p) for p in spec.positions)
            if len(set(support)) != len(support):
                raise ValueError("duplicate noise positions")
            if support and (support[0] < 0 or support[-1] >= n):
                raise ValueError("noise position out of range")
            if len(support) != spec.s0:
                raise ValueError("positions length must equal s0")
        else:
            support = sorted(int(p) for p in rng.choice(n, size=spec.s0, replace=False))
        M = L.copy()
        for p in support:
            col = rng.standard_normal(m)
            while np.linalg.norm(col) == 0:
                col = rng.standard_normal(m)
            M[:, p] = col / np.linalg.norm(col)
    meta = dict(inst.metadata)
    meta["noise"] = {"kind": spec.kind, "eps": spec.eps, "s0": spec.s0, "seed": seed}
    return Instance(
        L=L.copy(),
        M=M,
        rank=inst.rank,
        noise_support=list(support),
        column_basis=None if inst.column_basis is None else inst.column_basis.copy(),
        metadata=meta,
    )


def apply_noise_matrix(inst, E):
    """Extension hook: add a caller-supplied noise matrix to the clean view."""
    E = np.asarray(E, dtype=float)
    if E.shape != inst.L.shape:
        raise ValueError("noise matrix shape must match the instance")
    if not np.all(np.isfinite(E)):
        raise ValueError("noise matrix must be finite")
    support = [int(j) for j in np.flatnonzero(np.any(E != 0, axis=0))]
    meta = dict(inst.metadata)
    meta["noise"] = {"kind": "custom", "columns_touched": len(support)}
    return Instance(
        L=inst.L.copy(),
        M=inst.L + E,
        rank=inst.rank,
        noise_support=support,
        column_basis=None if inst.column_basis is None else inst.column_basis.copy(),
        metadata=meta,
    )


def save_matrix(path, A):
    """Write a matrix as text: a 'rows cols' header line, then one line of
    space-separated entries per row, 17 significant digits (round-trip
    exact for float64). Non-finite entries are rejected."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError("matrix must be 2-d and non-empty")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    with open(path, "w") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for row in A:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_matrix(path):
    """Read a matrix written by save_matrix. Raises MatrixFormatError naming
    the offending line on any structural problem."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixFormatError("line 1: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise MatrixFormatError("line 1: header must be 'rows cols'")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as err:
        raise MatrixFormatError(f"line 1: bad dimension ({err})") from err
    if rows < 1 or cols < 1:
        raise MatrixFormatError("line 1: dimensions must be positive")
    body = [ln for ln in lines[1:] if ln.strip() != ""]
    if len(body) != rows:
        raise MatrixFormatError(
            f"line {len(lines)}: expected {rows} data rows, found {len(body)}"
        )
    A = np.empty((rows, cols))
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != cols:
            raise MatrixFormatError(
                f"line {i + 2}: expected {cols} entries, found {len(parts)}"
            )
        try:
            A[i] = [float(p) for p in parts]
        except ValueError as err:
            raise MatrixFormatError(f"line {i + 2}: bad entry ({err})") from err
        if not np.all(np.isfinite(A[i])):
            raise MatrixFormatError(f"line {i + 2}: non-finite entry")
    return A
