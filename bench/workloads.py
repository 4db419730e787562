"""The four benchmark workloads, each with its per-operation check.

An operation is one trial. A batch is what one timed call runs: one trial
for the per-trial workloads, one whole sweep pass (one trial per cell) for
exact_sweep. Every input derives from the batch seed through mix_seed, so
the same seed gives the same inputs. Per-trial workloads generate their
instance just before the timed call and outside it; exact_sweep generates
inside its cells, as the sweep command does.

A check tests a result the paper guarantees for that workload. An
operation fails when its check fails or when it raises; a trial that
raises RankDeficientError or CombinatorialBudgetError has not produced the
guaranteed result, so it fails its check too. Inside exact_sweep those two
errors are data, recorded per cell by the command itself.

Each operation also yields a record of its discrete results (decision
sequence as absorbed indices, outlier set, success counts, entries read),
never floats, which the runner hashes into a digest.
"""

import csv
import hashlib
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import lifelong_mc as lm
from lifelong_mc import harness
from lifelong_mc.harness import mix_seed

EXPECTED_ERRORS = (lm.RankDeficientError, lm.CombinatorialBudgetError)


def cpu_seconds():
    """CPU time of this process (all threads) and its waited-for children."""
    kids = os.times()
    return time.process_time() + kids.children_user + kids.children_system


@dataclass
class Op:
    """One operation: wall time, check verdict, columns streamed, entries read.

    entries is None when the operation raised before reporting its reads;
    checked is False when it raised before its check could run.
    """

    seconds: float
    ok: bool
    columns: int
    entries: int | None
    record: object
    checked: bool = True


@dataclass
class Batch:
    """One timed call: its wall and CPU seconds, the seconds spent
    generating its input outside the timing (None when the call generates
    its own), and its operations."""

    timed: float
    cpu: float
    gen: float | None
    ops: list = field(default_factory=list)
    digest_bytes: bytes = b""


def _installed(tracer):
    return tracer.installed() if tracer else nullcontext()


def _span(tracer, label):
    return tracer.span(label) if tracer else nullcontext()


def _error_op(seconds, columns, err):
    return Op(seconds, False, columns, None, {"error": type(err).__name__}, checked=False)


class _PerTrial:
    """A workload whose batch is one trial on a freshly generated instance."""

    digest_ops = 10

    def warm_up(self, seed):
        self.run_batch(seed, None)

    def run_batch(self, seed, tracer):
        with _installed(tracer):
            with _span(tracer, "bench.generate"):
                t0 = time.perf_counter()
                inst = self.generate(seed)
                gen = time.perf_counter() - t0
            if tracer:
                tracer.next_op()
            with _span(tracer, "bench.op"):
                c0 = cpu_seconds()
                t0 = time.perf_counter()
                try:
                    out = self.call(inst, seed)
                except Exception as err:  # an operation's failure is data
                    out = err
                elapsed = time.perf_counter() - t0
                cpu = cpu_seconds() - c0
        if isinstance(out, Exception):
            _report_unexpected(out)
            op = _error_op(elapsed, self.columns, out)
        else:
            op = self.check(inst, out, elapsed)
        return Batch(elapsed, cpu, gen, [op])


def _report_unexpected(err):
    if not isinstance(err, EXPECTED_ERRORS):
        traceback.print_exception(err)


class TrackerStream(_PerTrial):
    """Criterion-3 tracker runs: cumulative stream, bounded noise, d=80."""

    name = "tracker_stream"

    def __init__(self, smoke=False):
        self.m, self.d, self.eps = 100, 80, 0.6
        self.widths = (20, 20, 20, 20, 120) if smoke else lm.datagen.CUMULATIVE_WIDTHS
        self.columns = int(sum(self.widths))
        self.tail = self.widths[-1]

    def generate(self, seed):
        inst = lm.gen_cumulative(self.m, mix_seed(seed, 1), widths=self.widths)
        return lm.apply_noise(inst, lm.NoiseSpec("bounded", eps=self.eps), mix_seed(seed, 2))

    def call(self, inst, seed):
        cfg = lm.TrackerConfig(d=self.d, noise_level=self.eps, seed=mix_seed(seed, 3))
        return lm.run_stream(inst.M, cfg, truth=inst.L)

    def check(self, inst, res, seconds):
        # criterion 3: final-block median error, basis size, and the
        # per-column error bound 9 (m/d) sqrt(k eps) on represented columns
        err = res.report.per_column_error
        bound_ok = all(
            err[t] <= 9 * (self.m / self.d) * np.sqrt(c.basis_size * self.eps)
            for t, c in enumerate(res.completions)
            if c.decision == "represented" and c.basis_size > 0
        )
        ok = bool(
            np.median(err[-self.tail:]) <= 1.0
            and res.report.basis_size <= 5
            and bound_ok
        )
        absorbed = [t for t, c in enumerate(res.completions) if c.decision == "absorbed"]
        record = {
            "absorbed": absorbed,
            "basis_size": res.report.basis_size,
            "entries": res.report.entries_sampled,
        }
        return Op(seconds, ok, self.columns, res.report.entries_sampled, record)


class _ExactTrial(_PerTrial):
    """A run_exact trial checked on error, rank and (optionally) outliers."""

    check_support = False

    def call(self, inst, seed):
        cfg = lm.ExactConfig(d=self.d, sparsity=self.sparsity, seed=mix_seed(seed, 3))
        return lm.run_exact(inst.M, cfg, truth=(inst.L, inst.noise_support))

    def check(self, inst, out, seconds):
        result, report = out
        ok = (
            report.frob_abs_error <= 1e-6
            and report.recovered_rank == self.rank
            and (report.support_exact or not self.check_support)
        )
        record = {
            "absorbed": [int(t) for t in result.absorbed_indices],
            "outliers": [int(t) for t in result.outlier_indices],
            "rank": int(report.recovered_rank),
            "entries": report.entries_sampled,
        }
        return Op(seconds, bool(ok), self.columns, report.entries_sampled, record)


class ExactChurn(_ExactTrial):
    """Gaussian rank-10 stream with s0 = d - r - 1 outliers at d=90."""

    name = "exact_churn"
    check_support = True
    sparsity = None

    def __init__(self, smoke=False):
        if smoke:
            self.m, self.columns, self.rank, self.d = 30, 60, 3, 20
        else:
            self.m, self.columns, self.rank, self.d = 100, 200, 10, 90
        self.s0 = self.d - self.rank - 1

    def generate(self, seed):
        inst = lm.gen_gaussian_lowrank(self.m, self.columns, self.rank, mix_seed(seed, 1))
        spec = lm.NoiseSpec("sparse_columns", s0=self.s0)
        return lm.apply_noise(inst, spec, mix_seed(seed, 2))


class MixtureSearch(_ExactTrial):
    """Sparsity-3 search over a union of 15 three-dimensional subspaces."""

    name = "mixture_search"

    def __init__(self, smoke=False):
        if smoke:
            self.m, self.per, self.groups, self.sparsity, self.d = 30, 8, 4, 2, 6
        else:
            self.m, self.per, self.groups, self.sparsity, self.d = 100, 40, 15, 3, 12
        self.columns = self.per * self.groups
        self.rank = self.groups * self.sparsity

    def generate(self, seed):
        return lm.gen_mixture(self.m, self.per, self.groups, self.sparsity, mix_seed(seed, 1))


class ExactSweep:
    """harness.cmd_sweep on the criterion-4 grid, one trial per cell.

    cmd_sweep runs serially here (workers=1), so the benchmark can time each
    cell and see each trial's report by replacing harness._sweep_cell and
    harness.run_single, the names cmd_sweep and _sweep_cell look up, with
    thin recorders for the duration of the pass.
    """

    name = "exact_sweep"

    def __init__(self, out_dir, smoke=False):
        if smoke:
            ratios = [0.2, 0.5, 1.0]
            self.grid = lm.SweepGrid(m=20, n=40, rank_ratios=ratios,
                                     sample_ratios=ratios, trials_per_cell=1)
        else:
            ratios = [round(0.1 * i, 1) for i in range(1, 11)]
            self.grid = lm.SweepGrid(m=50, n=500, rank_ratios=ratios,
                                     sample_ratios=ratios, trials_per_cell=1)
        self.out = os.path.join(out_dir, "exact_sweep.csv")
        self.digest_ops = len(self.grid.rank_ratios) * len(self.grid.sample_ratios)
        self.columns = self.grid.n * self.grid.trials_per_cell
        self._smoke = smoke

    def warm_up(self, seed):
        if self._smoke:
            self.run_batch(seed, None)
        else:
            ExactSweep(os.path.dirname(self.out), smoke=True).run_batch(seed, None)

    def run_batch(self, seed, tracer):
        cell_seconds, trials = [], []
        real_cell, real_single = harness._sweep_cell, harness.run_single

        def timed_cell(args):
            if tracer:
                tracer.next_op()
            t0 = time.perf_counter()
            try:
                with _span(tracer, "bench.cell"):
                    return real_cell(args)
            finally:
                cell_seconds.append(time.perf_counter() - t0)

        def recorded_single(cfg, trial_seed):
            try:
                report, result, inst = real_single(cfg, trial_seed)
            except EXPECTED_ERRORS as err:
                trials.append(({"error": type(err).__name__}, None))
                raise
            trials.append(({
                "absorbed": [int(t) for t in result.absorbed_indices],
                "outliers": [int(t) for t in result.outlier_indices],
            }, report.entries_sampled))
            return report, result, inst

        harness._sweep_cell, harness.run_single = timed_cell, recorded_single
        try:
            with _installed(tracer):
                with _span(tracer, "bench.pass"):
                    c0 = cpu_seconds()
                    t0 = time.perf_counter()
                    try:
                        _, rows = harness.cmd_sweep(self.grid, seed=seed, out=self.out, workers=1)
                    except Exception as err:  # a broken pass fails every cell
                        rows = err
                    elapsed = time.perf_counter() - t0
                    cpu = cpu_seconds() - c0
        finally:
            harness._sweep_cell, harness.run_single = real_cell, real_single

        if isinstance(rows, Exception):
            _report_unexpected(rows)
            ops = [_error_op(elapsed / self.digest_ops, self.columns, rows)
                   for _ in range(self.digest_ops)]
            return Batch(elapsed, cpu, None, ops)
        with open(self.out, "rb") as fh:
            csv_bytes = fh.read()
        ops = []
        for row, seconds, (record, entries) in zip(rows, cell_seconds, trials):
            # criterion 4 at this grid: a cell succeeds exactly when d >= r
            want = row["trials"] if row["d"] >= row["r"] else 0
            record.update(r=row["r"], d=row["d"], successes=row["successes"],
                          errors=row["errors"], entries=entries)
            ops.append(Op(seconds, row["successes"] == want, self.columns, entries, record))
        if not (len(ops) == len(rows) == self.digest_ops and _csv_rows(csv_bytes) == len(rows)):
            for op in ops:
                op.ok = False
        return Batch(elapsed, cpu, None, ops, hashlib.sha256(csv_bytes).digest())


def _csv_rows(data):
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    return sum(1 for _ in csv.reader(lines)) - 1


def make(name, out_dir, smoke=False):
    if name == ExactSweep.name:
        return ExactSweep(out_dir, smoke)
    classes = {c.name: c for c in (TrackerStream, ExactChurn, MixtureSearch)}
    return classes[name](smoke)
