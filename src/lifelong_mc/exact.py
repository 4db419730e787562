"""Streaming exact completion under sparse random column corruption.

The dictionary stores fully observed columns verbatim, in arrival order,
together with a usage counter per column. A column whose sampled entries are
exactly representable by the matching rows of the dictionary is completed in
place and bumps the counters on its support; anything else is read in full
and appended with its counter at zero. Corrupted columns can never earn
support from genuine data, so columns whose counter is still zero at the end
of the stream are reported as outliers and dropped from the recovered basis.

A sparsity-bounded variant restricts representation to combinations of at
most `sparsity` dictionary columns. That lowers the per-column sample demand
when the stream is drawn from a union of low-dimensional subspaces, because
each column only ever needs a few dictionary atoms. The search for a fitting
combination is brute force in a fixed order (smallest supports first,
lexicographic within a size) with shortcuts that provably return the same
support: a full-dictionary rejection test, and a unique-representation path
when the sampled dictionary has full column rank.
"""

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import (
    RankDeficientError,
    _mgs_residual,
    numerical_rank,
    orthonormalize,
    project_residual,
    require_finite,
    sample_indices,
    subsampled_complete,
)
from .report import ABSORBED, REPRESENTED, RunReport, frobenius_error


class CombinatorialBudgetError(RuntimeError):
    """The support search would enumerate more combinations than allowed."""


@dataclass
class ExactConfig:
    """Knobs for one exact streaming pass.

    d          entries sampled per column, without replacement (d <= m).
    zero_tol   relative residual treated as an exact fit; also the relative
               coefficient magnitude that counts as support.
    sparsity   when set, representation is restricted to combinations of at
               most this many dictionary columns (must not exceed d).
    max_combinations  budget for one support search before giving up.
    """

    d: int
    zero_tol: float = 1e-8
    sparsity: int | None = None
    seed: int = 0
    max_combinations: int = 2_000_000

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.zero_tol <= 0:
            raise ValueError("zero_tol must be positive")
        if self.sparsity is not None:
            if self.sparsity < 1:
                raise ValueError("sparsity must be at least 1")
            if self.sparsity > self.d:
                raise ValueError("sparsity cannot exceed the sample count d")
        if self.max_combinations < 1:
            raise ValueError("max_combinations must be positive")


class BasisDictionary:
    """Fully observed columns in arrival order plus per-column counters.

    Counters only ever increase. Representation tests run against the raw
    columns.
    """

    def __init__(self, m):
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m
        self._raw = np.zeros((m, 0))
        self._counters = np.zeros(0, dtype=int)

    @property
    def size(self):
        return int(self._raw.shape[1])

    @property
    def raw(self):
        return self._raw

    @property
    def counters(self):
        return self._counters.copy()

    def append(self, column):
        col = np.asarray(column, dtype=float).ravel()
        if col.shape != (self.m,):
            raise ValueError("column length must match the ambient dimension")
        if not np.all(np.isfinite(col)):
            raise ValueError("column entries must be finite")
        self._raw = np.column_stack([self._raw, col])
        self._counters = np.append(self._counters, 0)

    def record_support(self, coeffs, zero_tol):
        """Bump the counter of every column whose coefficient is non-zero
        relative to the largest one."""
        c = np.asarray(coeffs, dtype=float).ravel()
        if c.shape != (self.size,):
            raise ValueError("coefficient vector length must match the dictionary")
        peak = float(np.max(np.abs(c))) if c.size else 0.0
        if peak > 0.0:
            self._counters[np.abs(c) > zero_tol * peak] += 1
        return self._counters.copy()


def support_of(coeffs, zero_tol):
    """Indices whose coefficient magnitude exceeds zero_tol times the peak."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size == 0:
        return np.empty(0, dtype=int)
    peak = float(np.max(np.abs(c)))
    if peak == 0.0:
        return np.empty(0, dtype=int)
    return np.flatnonzero(np.abs(c) > zero_tol * peak)


def exact_test(dict_rows, v_rows, cfg):
    """True when the sampled entries are representable by the matching
    dictionary rows within cfg.zero_tol relative residual. A zero vector is
    trivially representable; an empty dictionary represents nothing else."""
    v = np.asarray(v_rows, dtype=float)
    vn = float(np.linalg.norm(v))
    if vn == 0.0:
        return True
    B = np.asarray(dict_rows, dtype=float)
    if B.ndim != 2 or B.shape[1] == 0:
        return False
    return project_residual(v, B) <= cfg.zero_tol * vn


def _lstsq_coeffs(B, v):
    coef, _, _, _ = np.linalg.lstsq(B, v, rcond=None)
    return coef


def _lstsq_with_residual(B, v):
    coef = _lstsq_coeffs(B, v)
    return coef, float(np.linalg.norm(v - B @ coef))


@lru_cache(maxsize=128)
def _combination_array(n_items, size):
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n_items), size)),
        dtype=np.intp,
    )
    return combos.reshape(-1, size)


class _SampledDictionary:
    """Per-epoch cache over one (dictionary, sample set) pairing; the
    tracker keeps one over its sampled basis rows. Valid until the next
    absorption. Holds the subsampled raw columns, an orthonormal basis of
    them, the numerical rank, and lazily built Gram inverses per support
    size for the batched screening step of the sparse search.
    """

    def __init__(self, B):
        self.B = np.asarray(B, dtype=float)
        self.q = orthonormalize(self.B)
        self.rank = numerical_rank(self.B) if self.B.shape[1] else 0
        self._gram = None
        self._inv = {}

    def residual(self, v):
        if self.q.shape[1] == 0:
            return float(np.linalg.norm(v))
        return float(np.linalg.norm(_mgs_residual(self.q, v)))

    def _gram_inverses(self, size):
        # ridge keeps degenerate supports solvable; the shift only inflates
        # residual estimates, never hides a genuine fit
        if size not in self._inv:
            if self._gram is None:
                self._gram = self.B.T @ self.B
                diag = np.diagonal(self._gram)
                self._ridge = 1e-12 * float(np.max(diag)) if diag.size else 0.0
            combos = _combination_array(self.B.shape[1], size)
            sub = self._gram[combos[:, :, None], combos[:, None, :]]
            sub = sub + self._ridge * np.eye(size)
            try:
                inv = np.linalg.inv(sub)
            except np.linalg.LinAlgError:
                inv = np.linalg.pinv(sub)
            self._inv[size] = (combos, inv)
        return self._inv[size]

    def screen(self, size, v, vsq):
        """Estimated squared residuals of every size-`size` support, via the
        cached Gram inverses. A loose filter: exact fits always survive."""
        combos, inv = self._gram_inverses(size)
        b = self.B.T @ v
        bs = b[combos]
        fit = np.einsum("ck,ckl,cl->c", bs, inv, bs)
        return combos, np.maximum(vsq - fit, 0.0)


def _first_sparse_support(B, v, sparsity, zero_tol, budget, cache=None):
    """First support (smallest size, then lexicographic) of at most
    `sparsity` dictionary columns that fits v exactly, or None.

    When the budget covers the whole dictionary the accept/reject decision
    coincides with exact_test: the full-dictionary rejection below is then
    exactly that test, and acceptance guarantees some subset no larger than
    the rank fits. Returns (support indices, coefficients on the support).
    """
    B = np.asarray(B, dtype=float)
    v = np.asarray(v, dtype=float)
    d, n_atoms = B.shape
    vn = float(np.linalg.norm(v))
    if vn == 0.0:
        return np.empty(0, dtype=int), np.empty(0)
    if n_atoms == 0:
        return None
    if cache is None:
        cache = _SampledDictionary(B)

    # no subset can fit if the whole dictionary cannot
    if cache.residual(v) > zero_tol * vn:
        return None

    if cache.rank == n_atoms:
        # representation is unique, so the only candidate support is the
        # non-zero pattern of the full solve
        coeffs = _lstsq_coeffs(B, v)
        sup = support_of(coeffs, zero_tol)
        if sup.size > sparsity:
            return None
        csub, resid = _lstsq_with_residual(B[:, sup], v)
        if resid <= zero_tol * vn:
            return sup, csub
        # numerical disagreement: fall back to the explicit search

    vsq = vn * vn
    screen_cut = max(1e-8, (100.0 * zero_tol) ** 2) * vsq
    examined = 0
    for size in range(1, min(sparsity, n_atoms) + 1):
        examined += math.comb(n_atoms, size)
        if examined > budget:
            # checked before materializing anything for this size
            raise CombinatorialBudgetError(
                f"support search would examine {examined} combinations "
                f"(budget {budget}); lower the sparsity or shrink the stream"
            )
        combos, resid2 = cache.screen(size, v, vsq)
        for ci in np.flatnonzero(resid2 <= screen_cut):
            sup = combos[ci]
            csub, resid = _lstsq_with_residual(B[:, sup], v)
            if resid <= zero_tol * vn:
                return np.array(sup, dtype=int), csub
    return None


def sparse_represent(dict_rows, v_rows, sparsity, zero_tol, max_combinations=2_000_000):
    """Search for an exact representation of the sampled entries by at most
    `sparsity` dictionary columns. Returns (support, coefficients) for the
    first fitting support in size-then-lexicographic order, or None."""
    if sparsity < 1:
        raise ValueError("sparsity must be at least 1")
    B = np.asarray(dict_rows, dtype=float)
    if B.ndim != 2:
        raise ValueError("dict_rows must be 2-d")
    return _first_sparse_support(B, np.asarray(v_rows, float), sparsity, zero_tol,
                                 max_combinations)


@dataclass
class RecoveryResult:
    """Recovered matrix plus the dictionary bookkeeping at stream end."""

    recovered: np.ndarray
    basis_indices: list
    outlier_indices: list
    absorbed_indices: list
    recovered_rank: int
    counters: np.ndarray
    dictionary: BasisDictionary
    decisions: list = field(default_factory=list)


def run_exact(M, cfg, truth=None):
    """One exact pass over the columns of M.

    truth, when given, is (L, noise_support): the clean matrix and the true
    corrupted column positions. The report's Frobenius errors are then taken
    over the columns not flagged as outliers (the flagged ones were replaced
    wholesale, so their clean values were never observable), and
    support_exact records whether the flagged set matches the true one.

    Returns (RecoveryResult, RunReport).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] < 1:
        raise ValueError("M must be 2-d with at least one column")
    m, n = M.shape
    if not 1 <= cfg.d <= m:
        raise ValueError(f"need 1 <= d <= m, got d={cfg.d}, m={m}")

    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    omega = sample_indices(m, cfg.d, with_replacement=False, rng=rng)
    dictionary = BasisDictionary(m)
    cache = _SampledDictionary(dictionary.raw[omega.indices, :])
    recovered = np.zeros_like(M)
    absorbed_at = []
    decisions = []
    entries = 0

    for t in range(n):
        entries += cfg.d
        v = require_finite(M[omega.indices, t], t)
        vn = float(np.linalg.norm(v))
        if cfg.sparsity is None:
            fit = _full_fit(cache, v, vn, cfg)
        else:
            fit = _first_sparse_support(
                cache.B, v, cfg.sparsity, cfg.zero_tol, cfg.max_combinations, cache
            )
        if fit is None:
            full = require_finite(M[:, t].copy(), t)
            dictionary.append(full)
            absorbed_at.append(t)
            recovered[:, t] = full
            entries += m - cfg.d
            omega = sample_indices(m, cfg.d, with_replacement=False, rng=rng)
            cache = _SampledDictionary(dictionary.raw[omega.indices, :])
            decisions.append(ABSORBED)
            continue

        try:
            if cfg.sparsity is None:
                coeffs = fit
                dictionary.record_support(coeffs, cfg.zero_tol)
                if cache.rank < dictionary.size:
                    raise RankDeficientError(
                        f"sampled dictionary has rank {cache.rank} < "
                        f"{dictionary.size} columns; increase the sample count"
                    )
                recovered[:, t] = dictionary.raw @ coeffs
            else:
                sup, csub = fit
                scattered = np.zeros(dictionary.size)
                scattered[sup] = csub
                dictionary.record_support(scattered, cfg.zero_tol)
                if sup.size:
                    recovered[:, t] = subsampled_complete(
                        dictionary.raw[:, sup], cache.B[:, sup], v
                    )
        except RankDeficientError as err:
            raise RankDeficientError(f"column {t}: {err}") from err
        decisions.append(REPRESENTED)

    counters = dictionary.counters
    outliers = [absorbed_at[j] for j in np.flatnonzero(counters == 0)]
    basis_cols = [absorbed_at[j] for j in np.flatnonzero(counters > 0)]
    retained = dictionary.raw[:, counters > 0]
    result = RecoveryResult(
        recovered=recovered,
        basis_indices=basis_cols,
        outlier_indices=outliers,
        absorbed_indices=list(absorbed_at),
        recovered_rank=numerical_rank(retained),
        counters=counters,
        dictionary=dictionary,
        decisions=decisions,
    )
    report = RunReport(
        basis_size=dictionary.size,
        columns_absorbed=len(absorbed_at),
        entries_sampled=entries,
        recovered_rank=result.recovered_rank,
        wall_time=time.perf_counter() - started,
        outlier_indices=list(outliers),
    )
    if truth is not None:
        L, noise_support = truth
        L = np.asarray(L, dtype=float)
        report.frob_rel_error, report.frob_abs_error = frobenius_error(
            recovered, L, exclude_cols=outliers
        )
        errors = np.linalg.norm(recovered - L, axis=0)
        errors[list(outliers)] = np.nan
        report.per_column_error = errors
        report.support_exact = sorted(outliers) == sorted(int(j) for j in noise_support)
    return result, report


def _full_fit(cache, v, vn, cfg):
    """Whole-dictionary representation test and coefficients, or None."""
    if vn == 0.0:
        return np.zeros(cache.B.shape[1])
    if cache.B.shape[1] == 0:
        return None
    if cache.residual(v) > cfg.zero_tol * vn:
        return None
    return _lstsq_coeffs(cache.B, v)
