"""Experiment engine: seeded single runs, phase-transition sweeps, and the
single-subspace versus mixture comparison, all reporting to CSV.

Reproducibility contract: every command derives all randomness from the
config seed through a stated 64-bit mixing function, writes the full config
into the CSV as comment lines, and formats numbers with repr, so rerunning
the same config yields a byte-identical file. Wall-clock time is therefore
never serialized.
"""

import csv
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import datagen
from .datagen import Instance, NoiseSpec
from .exact import CombinatorialBudgetError, ExactConfig, run_exact
from .linalg import RankDeficientError, numerical_rank
from .report import frobenius_error
from .tracker import TrackerConfig, run_stream

SCHEMA_VERSION = 1
# failures of a trial that are recorded as results rather than raised
DATA_ERRORS = (RankDeficientError, CombinatorialBudgetError)
THREADS_ENV = "LIFELONG_MC_THREADS"

_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(base, *parts):
    """Derive a child seed from a base seed and integer coordinates by
    chaining splitmix64 over each part. Stable across platforms."""
    state = _splitmix64(int(base) & _MASK64)
    for p in parts:
        state = _splitmix64(state ^ (int(p) & _MASK64))
    return state


def thread_cap(requested=None):
    """Worker count for cell-parallel commands, capped by the
    LIFELONG_MC_THREADS environment variable (default 1)."""
    cap = os.environ.get(THREADS_ENV, "").strip()
    try:
        cap = int(cap) if cap else 1
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {cap!r}")
    if cap < 1:
        raise ValueError(f"{THREADS_ENV} must be at least 1")
    if requested is None:
        return cap
    return max(1, min(int(requested), cap))


# ---------------------------------------------------------------------------
# configs


@dataclass
class RunConfig:
    """One experiment: a generator, a noise model, an algorithm, trial count.

    s0 may be the literal string "auto", which resolves per trial to
    d - r - 1 for full-rank tests and d - sparsity - 1 for sparsity-bounded
    ones (clamped at zero): the widest corruption the exactness test
    tolerates.
    """

    algorithm: str = "exact"          # tracker | exact | mixture
    generator: str = "gaussian"       # gaussian | cumulative | mixture | lower_bound | file
    m: int = 50
    n: int = 500
    r: int = 5
    d: int = 25
    trials: int = 1
    seed: int = 0
    out: str = "results.csv"
    noise: str = "none"               # none | bounded | sparse
    noise_level: float = 0.0
    s0: object = 0
    sparsity: int = 0
    n_subspaces: int = 0
    per_subspace: int = 0
    subspace_dim: int = 0
    target_coherence: float = 0.0
    block_scales: list = field(default_factory=list)
    threshold_scale: float = 1.0
    zero_tol: float = 1e-8
    norm_mode: str = "strict"
    matrix_path: str = ""
    truth_path: str = ""

    def __post_init__(self):
        if self.algorithm not in ("tracker", "exact", "mixture"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.generator not in ("gaussian", "cumulative", "mixture", "lower_bound", "file"):
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.noise not in ("none", "bounded", "sparse"):
            raise ValueError(f"unknown noise {self.noise!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.generator != "file" and self.d > self.m:
            # a file's m is only known once it is read
            raise ValueError(f"need 1 <= d <= m, got d={self.d}, m={self.m}")
        if self.algorithm == "mixture" and self.sparsity < 1:
            raise ValueError("the mixture algorithm needs sparsity >= 1")
        if isinstance(self.s0, str) and self.s0 != "auto":
            raise ValueError("s0 must be an integer or 'auto'")
        if self.generator == "file" and not self.matrix_path:
            raise ValueError("generator 'file' needs matrix_path")

    @property
    def rank_effective(self):
        if self.generator == "mixture":
            return self.n_subspaces * self.subspace_dim
        return self.r

    def resolve_s0(self):
        if self.s0 == "auto":
            margin = self.sparsity if self.algorithm == "mixture" else self.rank_effective
            return max(0, self.d - margin - 1)
        return int(self.s0)


@dataclass
class SweepGrid:
    """Cartesian grid over rank and sampling fractions of m."""

    m: int = 50
    n: int = 500
    rank_ratios: list = field(default_factory=list)
    sample_ratios: list = field(default_factory=list)
    trials_per_cell: int = 10

    def __post_init__(self):
        if not self.rank_ratios or not self.sample_ratios:
            raise ValueError("rank_ratios and sample_ratios must be non-empty")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be at least 1")
        for rr in self.rank_ratios:
            if int(np.floor(rr * self.m)) < 1:
                raise ValueError(f"rank ratio {rr} gives an empty rank")
        for sr in self.sample_ratios:
            ds = int(np.floor(sr * self.m))
            if not 1 <= ds <= self.m:
                raise ValueError(f"sample ratio {sr} gives d outside [1, m]")


# ---------------------------------------------------------------------------
# instance construction and single trials


def make_instance(cfg, trial_seed):
    """Build the instance for one trial. Generation and noise injection use
    separate seeds derived from the trial seed (tags 1 and 2)."""
    gseed = mix_seed(trial_seed, 1)
    nseed = mix_seed(trial_seed, 2)
    if cfg.generator == "gaussian":
        inst = datagen.gen_gaussian_lowrank(cfg.m, cfg.n, cfg.r, gseed)
    elif cfg.generator == "cumulative":
        inst = datagen.gen_cumulative(cfg.m, gseed)
    elif cfg.generator == "mixture":
        inst = datagen.gen_mixture(
            cfg.m, cfg.per_subspace, cfg.n_subspaces, cfg.subspace_dim, gseed
        )
    elif cfg.generator == "lower_bound":
        inst = datagen.gen_lower_bound(
            cfg.m, cfg.target_coherence, cfg.r, cfg.block_scales, gseed
        )
    else:
        M = datagen.load_matrix(cfg.matrix_path)
        L = datagen.load_matrix(cfg.truth_path) if cfg.truth_path else M.copy()
        return Instance(
            L=L, M=M, rank=cfg.r if cfg.r > 0 else numerical_rank(L),
            metadata={"generator": "file", "path": cfg.matrix_path},
        )
    if cfg.noise == "bounded":
        inst = datagen.apply_noise(inst, NoiseSpec("bounded", eps=cfg.noise_level), nseed)
    elif cfg.noise == "sparse":
        inst = datagen.apply_noise(
            inst, NoiseSpec("sparse_columns", s0=cfg.resolve_s0()), nseed
        )
    return inst


def run_single(cfg, trial_seed):
    """One trial: build the instance, run the configured algorithm, and
    re-measure the report's error fields from the stored matrices rather
    than trusting the algorithm's own bookkeeping."""
    inst = make_instance(cfg, trial_seed)
    alg_seed = mix_seed(trial_seed, 3)
    if cfg.algorithm == "tracker":
        tcfg = TrackerConfig(
            d=cfg.d,
            noise_level=cfg.noise_level,
            threshold_scale=cfg.threshold_scale,
            seed=alg_seed,
            norm_mode=cfg.norm_mode,
        )
        res = run_stream(inst.M, tcfg, truth=inst.L)
        report = res.report
        report.frob_rel_error, report.frob_abs_error = frobenius_error(
            res.recovered, inst.L
        )
        return report, res, inst
    ecfg = ExactConfig(
        d=cfg.d,
        zero_tol=cfg.zero_tol,
        sparsity=cfg.sparsity if cfg.algorithm == "mixture" else None,
        seed=alg_seed,
    )
    result, report = run_exact(inst.M, ecfg, truth=(inst.L, inst.noise_support))
    report.frob_rel_error, report.frob_abs_error = frobenius_error(
        result.recovered, inst.L, exclude_cols=result.outlier_indices
    )
    return report, result, inst


def metric_success(report, r):
    """Success: absolute Frobenius error of the kept columns within 1e-6,
    recovered rank equal to the declared one, and (when a noise truth is
    known) the outlier support identified exactly. A non-positive declared
    rank skips the rank condition (file-backed runs without a known rank)."""
    if report.frob_abs_error is None:
        return False
    if report.frob_abs_error > 1e-6:
        return False
    if r > 0 and report.recovered_rank != r:
        return False
    if report.support_exact is False:
        return False
    return True


# ---------------------------------------------------------------------------
# CSV plumbing


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path, config_pairs, fieldnames, rows):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for key, value in config_pairs:
            fh.write(f"# {key} = {_fmt(value)}\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])
    return path


def config_pairs(obj, extra=()):
    """The `# key = value` head of a CSV: the fields of the dataclass obj
    (none when obj is None) plus the extra pairs, sorted by key after
    schema_version, with lists joined by commas."""
    own = [(f.name, getattr(obj, f.name)) for f in fields(obj)] if obj is not None else []
    pairs = [("schema_version", SCHEMA_VERSION)]
    for key, value in sorted(own + list(extra), key=lambda kv: kv[0]):
        if isinstance(value, (list, tuple)):
            value = ",".join(_fmt(v) for v in value)
        pairs.append((key, value))
    return pairs


# ---------------------------------------------------------------------------
# commands

RUN_FIELDS = [
    "schema_version", "trial", "seed", "success", "frob_rel_error",
    "frob_abs_error", "recovered_rank", "basis_size", "support_exact",
    "columns_absorbed", "entries_sampled", "outliers_found", "error",
]

COLUMN_FIELDS = [
    "schema_version", "trial", "column", "decision", "basis_size",
    "residual", "threshold", "error", "error_scale",
]


def _tally(cfg, trial_seeds):
    """(successes, errors) of cfg over the given trial seeds. Only the
    algorithmic failures RankDeficientError and CombinatorialBudgetError
    count as data; any other error propagates."""
    successes = errors = 0
    for trial_seed in trial_seeds:
        try:
            report, _, _ = run_single(cfg, trial_seed)
        except DATA_ERRORS:
            errors += 1
            continue
        successes += int(metric_success(report, cfg.rank_effective))
    return successes, errors


def _map_cells(fn, tasks, workers):
    """fn over tasks in order, in worker processes when the thread cap
    allows more than one."""
    n_workers = thread_cap(workers)
    if n_workers == 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, tasks))


def cmd_run(cfg):
    """Run cfg.trials seeded trials (seeds cfg.seed .. cfg.seed+trials-1),
    write one row per trial plus an aggregate row. Tracker runs additionally
    write a per-column CSV next to the main one, suitable for plotting the
    error trajectory along the stream. Algorithmic failures become error
    rows; any other error propagates and no CSV is written."""
    rows = []
    column_rows = []
    successes = 0
    clean = 0
    for i in range(cfg.trials):
        trial_seed = cfg.seed + i
        row = {"schema_version": SCHEMA_VERSION, "trial": i, "seed": trial_seed}
        try:
            report, result, inst = run_single(cfg, trial_seed)
        except DATA_ERRORS as err:
            row.update(success=0, error=f"{type(err).__name__}: {err}")
            rows.append(row)
            continue
        ok = metric_success(report, cfg.rank_effective)
        successes += int(ok)
        clean += 1
        row.update(
            success=int(ok),
            frob_rel_error=report.frob_rel_error,
            frob_abs_error=report.frob_abs_error,
            recovered_rank=report.recovered_rank,
            basis_size=report.basis_size,
            support_exact=report.support_exact,
            columns_absorbed=report.columns_absorbed,
            entries_sampled=report.entries_sampled,
            outliers_found=len(report.outlier_indices),
            error="",
        )
        rows.append(row)
        if cfg.algorithm == "tracker":
            column_rows.extend(_tracker_column_rows(i, cfg, report, result))
    agg = {
        "schema_version": SCHEMA_VERSION,
        "trial": "aggregate",
        "seed": cfg.seed,
        "success": successes / cfg.trials,
        "error": "" if clean == cfg.trials else f"{cfg.trials - clean} trials errored",
    }
    rows.append(agg)
    path = _write_csv(cfg.out, config_pairs(cfg, [("command", "run")]), RUN_FIELDS, rows)
    if column_rows:
        base, ext = os.path.splitext(cfg.out)
        _write_csv(
            base + "_columns" + (ext or ".csv"),
            config_pairs(cfg, [("command", "run-columns")]),
            COLUMN_FIELDS,
            column_rows,
        )
    return path, successes / cfg.trials


def _tracker_column_rows(trial, cfg, report, res):
    m = res.recovered.shape[0]  # a file run has the file's row count, not cfg.m
    out = []
    for t, comp in enumerate(res.completions):
        err = None
        if report.per_column_error is not None:
            err = float(report.per_column_error[t])
        scale = m / cfg.d * float(np.sqrt(comp.basis_size * cfg.noise_level))
        out.append({
            "schema_version": SCHEMA_VERSION,
            "trial": trial,
            "column": t,
            "decision": comp.decision,
            "basis_size": comp.basis_size,
            "residual": comp.residual,
            "threshold": comp.threshold,
            "error": err,
            "error_scale": scale,
        })
    return out


SWEEP_FIELDS = [
    "schema_version", "rank_ratio", "sample_ratio", "r", "d", "s0",
    "trials", "successes", "success_fraction", "errors",
]


def _sweep_cell(args):
    grid, seed, zero_tol, ri, si = args
    r = int(np.floor(grid.rank_ratios[ri] * grid.m))
    d = int(np.floor(grid.sample_ratios[si] * grid.m))
    s0 = max(0, d - r - 1)
    cfg = RunConfig(
        algorithm="exact", generator="gaussian", m=grid.m, n=grid.n,
        r=r, d=d, noise="sparse", s0=s0, zero_tol=zero_tol, out="",
    )
    seeds = [mix_seed(seed, ri, si, trial) for trial in range(grid.trials_per_cell)]
    successes, errors = _tally(cfg, seeds)
    return {
        "schema_version": SCHEMA_VERSION,
        "rank_ratio": grid.rank_ratios[ri],
        "sample_ratio": grid.sample_ratios[si],
        "r": r,
        "d": d,
        "s0": s0,
        "trials": grid.trials_per_cell,
        "successes": successes,
        "success_fraction": successes / grid.trials_per_cell,
        "errors": errors,
    }


def cmd_sweep(grid, seed=0, out="sweep.csv", zero_tol=1e-8, workers=None):
    """Exact-recovery success fraction over the (rank ratio, sample ratio)
    grid, s0 pinned to d - r - 1 per cell. Cells are independent; worker
    processes are used when the thread cap allows. Failed recoveries and
    algorithmic errors count against the cell; any other error aborts the
    sweep before a CSV is written."""
    tasks = [
        (grid, seed, zero_tol, ri, si)
        for ri in range(len(grid.rank_ratios))
        for si in range(len(grid.sample_ratios))
    ]
    rows = _map_cells(_sweep_cell, tasks, workers)
    extra = [("command", "sweep"), ("seed", seed), ("zero_tol", zero_tol)]
    path = _write_csv(out, config_pairs(grid, extra), SWEEP_FIELDS, rows)
    return path, rows


COMPARE_FIELDS = [
    "schema_version", "d", "algorithm", "trials", "successes",
    "success_fraction", "errors",
]


def _compare_point(args):
    m, per_subspace, n_subspaces, subspace_dim, seed, zero_tol, di, d, trials = args
    # the bounded test needs sparsity <= d; smaller d keep their rows, with zero trials
    runs = trials if subspace_dim <= d else 0
    seeds = [mix_seed(seed, di, trial) for trial in range(runs)]
    rows = []
    for algorithm in ("exact", "mixture"):
        successes = errors = 0
        if seeds:
            cfg = RunConfig(
                algorithm=algorithm, generator="mixture", m=m, d=d,
                per_subspace=per_subspace, n_subspaces=n_subspaces,
                subspace_dim=subspace_dim, sparsity=subspace_dim,
                zero_tol=zero_tol, out="",
            )
            successes, errors = _tally(cfg, seeds)
        rows.append({
            "schema_version": SCHEMA_VERSION,
            "d": d,
            "algorithm": algorithm,
            "trials": len(seeds),
            "successes": successes,
            "success_fraction": successes / len(seeds) if seeds else 0.0,
            "errors": errors,
        })
    return rows


def cmd_compare_mixture(m, per_subspace, n_subspaces, subspace_dim, d_values,
                        trials, seed=0, out="compare.csv", zero_tol=1e-8,
                        workers=None):
    """Success curves over d for the full-rank test versus the
    sparsity-bounded test on identical mixture instances and seeds. The
    sparsity equals the common subspace dimension; d values where the
    sparsity would exceed d are skipped for the bounded variant's
    constraint, reported with zero trials."""
    d_values = [int(d) for d in d_values]
    tasks = [
        (m, per_subspace, n_subspaces, subspace_dim, seed, zero_tol, di, d, trials)
        for di, d in enumerate(d_values)
    ]
    rows = [row for pair in _map_cells(_compare_point, tasks, workers) for row in pair]
    rows.sort(key=lambda row: (row["d"], row["algorithm"]))
    header = config_pairs(None, [
        ("command", "compare-mixture"), ("m", m), ("per_subspace", per_subspace),
        ("n_subspaces", n_subspaces), ("subspace_dim", subspace_dim),
        ("d_values", d_values), ("trials", trials), ("seed", seed),
        ("zero_tol", zero_tol),
    ])
    path = _write_csv(out, header, COMPARE_FIELDS, rows)
    return path, rows


def cmd_gen(cfg):
    """Materialize one instance to disk: clean matrix, observed matrix, and
    a small JSON sidecar with rank, noise support, and provenance. cfg.out
    is used as a path prefix."""
    import json

    inst = make_instance(cfg, cfg.seed)
    prefix = cfg.out
    paths = {
        "L": prefix + "_L.txt",
        "M": prefix + "_M.txt",
        "meta": prefix + "_meta.json",
    }
    parent = os.path.dirname(os.path.abspath(prefix))
    os.makedirs(parent, exist_ok=True)
    datagen.save_matrix(paths["L"], inst.L)
    datagen.save_matrix(paths["M"], inst.M)
    meta = {
        "rank": inst.rank,
        "noise_support": [int(j) for j in inst.noise_support],
        "metadata": _jsonable(inst.metadata),
        "seed": cfg.seed,
    }
    with open(paths["meta"], "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj
