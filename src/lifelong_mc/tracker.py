"""Streaming completion under bounded per-column noise.

A single pass over the columns maintains an orthonormal basis of the
directions met so far. Each arriving column is observed on a small random
index set; when the projection residual on those entries exceeds a
noise-calibrated threshold the column is read in full and absorbed into
the basis, otherwise it is completed from the sampled entries alone. The
threshold grows with the basis size so that, once the basis is complete,
in-span columns stay below it despite the noise.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .exact import _lstsq_coeffs, _SampledDictionary
from .linalg import RankDeficientError, extend_basis, require_finite, sample_indices
from .report import ABSORBED, REPRESENTED, RunReport, frobenius_error


@dataclass
class TrackerConfig:
    """Knobs for one streaming pass.

    d              entries sampled per column (with replacement by default).
    noise_level    per-column l2 noise bound; 0 means exact data.
    threshold_scale  multiplier on the calibrated residual threshold.
    dedup_samples  collapse duplicate draws (off by default: duplicates stay
                   in the least-squares system and weight the fit).
    norm_mode      "strict" rejects columns whose norm strays from 1 by more
                   than noise_level + 1e-6; "lenient" rescales them.
    zero_floor     relative residual standing in for an exact zero test when
                   the calibrated threshold vanishes.
    """

    d: int
    noise_level: float = 0.0
    threshold_scale: float = 1.0
    seed: int = 0
    with_replacement: bool = True
    dedup_samples: bool = False
    norm_mode: str = "strict"
    zero_floor: float = 1e-8

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.noise_level < 0:
            raise ValueError("noise_level must be non-negative")
        if self.threshold_scale <= 0:
            raise ValueError("threshold_scale must be positive")
        if self.norm_mode not in ("strict", "lenient"):
            raise ValueError("norm_mode must be 'strict' or 'lenient'")
        if self.zero_floor <= 0:
            raise ValueError("zero_floor must be positive")


def residual_threshold(basis_size, cfg, m):
    """Calibrated cutoff for the sampled residual at the given basis size:
    threshold_scale * sqrt(d * basis_size * noise_level / m). Zero when the
    basis is empty or the data are exact."""
    if m < 1:
        raise ValueError("m must be positive")
    return cfg.threshold_scale * float(
        np.sqrt(cfg.d * basis_size * cfg.noise_level / m)
    )


@dataclass
class Completion:
    """Outcome for one column. decision is absorbed exactly when
    residual > threshold (the threshold stored here is the effective one,
    including the zero floor)."""

    estimate: np.ndarray
    decision: str
    residual: float
    threshold: float
    basis_size: int


class TrackerState:
    """Mutable single-pass state: basis, current sample set, RNG, and the
    factored sampled basis rows of the current epoch (columns since the
    last absorption)."""

    def __init__(self, m, cfg):
        if not 1 <= cfg.d <= m:
            raise ValueError(f"need 1 <= d <= m, got d={cfg.d}, m={m}")
        self.m = m
        self.basis = np.zeros((m, 0))
        self.rng = np.random.default_rng(cfg.seed)
        self.absorb_events = 0
        self.resample_events = 0
        self.column_log = []
        self._epoch = None
        self.omega = sample_indices(
            m, cfg.d, cfg.with_replacement, self.rng, dedup=cfg.dedup_samples
        )

    @property
    def basis_size(self):
        return int(self.basis.shape[1])

    @property
    def epoch(self):
        """The sampled basis rows with their orthonormal factor and rank,
        built on first use after the sample set was drawn."""
        if self._epoch is None:
            self._epoch = _SampledDictionary(self.basis[self.omega.indices, :])
        return self._epoch

    def resample(self, cfg):
        self.omega = sample_indices(
            self.m, cfg.d, cfg.with_replacement, self.rng, dedup=cfg.dedup_samples
        )
        self._epoch = None
        self.resample_events += 1


def _sampled_residual(state, v):
    return state.epoch.residual(v)


def _read(column_oracle, rows, t):
    v = np.asarray(column_oracle(rows), dtype=float)
    if v.shape != rows.shape:
        raise ValueError(f"column {t}: oracle returned the wrong number of entries")
    return require_finite(v, t)


def process_column(state, column_oracle, cfg):
    """Handle one arriving column through its entry-access oracle.

    The oracle maps an index array to the entry values at those rows. Only
    the sampled entries are requested; a full read happens exactly when the
    column is absorbed, and the sample set is redrawn right after. Every
    read is checked for length and finiteness; a ValueError names the
    column by its position in the stream.
    """
    idx = state.omega.indices
    t = len(state.column_log)
    v = _read(column_oracle, idx, t)
    resid = _sampled_residual(state, v)
    cutoff = max(
        residual_threshold(state.basis_size, cfg, state.m),
        cfg.zero_floor * float(np.linalg.norm(v)),
    )
    k_at = state.basis_size
    if resid > cutoff:
        rest = np.setdiff1d(np.arange(state.m), idx)
        full = np.empty(state.m)
        full[idx] = v
        if rest.size:
            full[rest] = _read(column_oracle, rest, t)
        state.basis = extend_basis(state.basis, full)
        state.absorb_events += 1
        state.resample(cfg)
        comp = Completion(full, ABSORBED, resid, cutoff, k_at)
    else:
        epoch = state.epoch
        if epoch.rank < k_at:
            raise RankDeficientError(
                f"sampled basis has rank {epoch.rank} < {k_at} columns over "
                f"{idx.size} sampled rows; increase the sample count"
            )
        est = state.basis @ _lstsq_coeffs(epoch.B, v) if k_at else np.zeros(state.m)
        comp = Completion(est, REPRESENTED, resid, cutoff, k_at)
    state.column_log.append(comp)
    return comp


@dataclass
class StreamResult:
    basis: np.ndarray
    recovered: np.ndarray
    report: RunReport
    completions: list = field(default_factory=list)


def run_stream(M, cfg, truth=None):
    """One pass over the columns of M. Returns a StreamResult whose report
    carries the basis size, full-read count, the exact entry budget
    d*n + (m-d)*reads, and per-column errors when truth is given.

    A column with a non-finite entry is rejected up front in either mode.
    Column norms are validated against the unit-norm assumption up to the
    noise level; strict mode raises, lenient mode rescales.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] < 1:
        raise ValueError("M must be 2-d with at least one column")
    m, n = M.shape
    if not 1 <= cfg.d <= m:
        raise ValueError(f"need 1 <= d <= m, got d={cfg.d}, m={m}")
    norms = np.linalg.norm(M, axis=0)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(f"column {bad[0]}: non-finite entry read")
    slack = cfg.noise_level + 1e-6
    off = np.flatnonzero(np.abs(norms - 1.0) > slack)
    if off.size:
        if cfg.norm_mode == "strict":
            raise ValueError(
                f"column {off[0]} has norm {norms[off[0]]:.6g}, outside "
                f"1 +/- {slack:.3g}; normalize the stream or use lenient mode"
            )
        if np.any(norms == 0):
            raise ValueError("cannot rescale a zero column")
        M = M / norms

    started = time.perf_counter()
    state = TrackerState(m, cfg)
    recovered = np.empty_like(M)
    for t in range(n):
        col = M[:, t]
        try:
            comp = process_column(state, lambda ix, c=col: c[ix], cfg)
        except RankDeficientError as err:
            wrapped = RankDeficientError(f"column {t}: {err}")
            wrapped.partial = _build_result(state, recovered[:, :t], M, cfg, truth, started)
            raise wrapped from err
        recovered[:, t] = comp.estimate
    return _build_result(state, recovered, M, cfg, truth, started)


def _build_result(state, recovered, M, cfg, truth, started):
    m = state.m
    n_done = recovered.shape[1]
    report = RunReport(
        basis_size=state.basis_size,
        columns_absorbed=state.absorb_events,
        entries_sampled=cfg.d * n_done + (m - cfg.d) * state.absorb_events,
        recovered_rank=state.basis_size,
        wall_time=time.perf_counter() - started,
    )
    if truth is not None and n_done:
        L = np.asarray(truth, dtype=float)[:, :n_done]
        report.per_column_error = np.linalg.norm(recovered - L, axis=0)
        report.frob_rel_error, report.frob_abs_error = frobenius_error(recovered, L)
    return StreamResult(
        basis=state.basis,
        recovered=recovered,
        report=report,
        completions=list(state.column_log),
    )
