"""Span tracer for the benchmark's traced run.

The tracer wraps the package's layer functions from outside: no file of
the package changes. A function is patched wherever a caller looks its name
up (every lifelong_mc module whose namespace holds it), and a method is
patched on its class. Each call records a span: name, start, end, parent
span and operation id, in flat arrays kept in memory and written out when
the run ends. A function's self time is its span's duration minus the
durations of its direct child spans, which nest and so never overlap.
"""

import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter

import numpy as np

# The functions the traced run records, as "<module>.<qualname>". The
# layer each belongs to, and the end-to-end metric it should move, are in
# README.md.
TARGETS = (
    # tracker: the streaming loop, per column, and its residual test
    "tracker.run_stream", "tracker.process_column", "tracker._sampled_residual",
    # linalg primitives
    "linalg.orthonormalize", "linalg.subsampled_complete", "linalg.numerical_rank",
    "linalg.extend_basis", "linalg.sample_indices",
    # exact: the streaming loop and its reading side
    "exact.run_exact", "exact._full_fit", "exact._lstsq_coeffs",
    "exact._SampledDictionary.residual", "exact.BasisDictionary.record_support",
    # exact: writing side, paid at every absorption
    "exact._SampledDictionary.__init__", "exact.BasisDictionary.append",
    # exact: sparse support search
    "exact._first_sparse_support", "exact._SampledDictionary.screen",
    "exact._SampledDictionary._gram_inverses", "exact._lstsq_with_residual",
    # datagen
    "datagen.gen_cumulative", "datagen.gen_gaussian_lowrank", "datagen.gen_mixture",
    "datagen.apply_noise",
    # harness and report
    "harness.run_single", "harness.make_instance", "harness._write_csv",
    "report.frobenius_error",
)

# Per-call counts taken from a function's result.
_RESULT_COUNTS = {
    "exact._SampledDictionary.screen": lambda out: len(out[0]),
    "exact._first_sparse_support": lambda out: int(out is not None),
}

DERIVED = (
    ("linalg.calls_per_col", "calls/col", "lower"),
    ("tracker.absorb_ratio", "ratio", "lower"),
    ("exact.absorb_ratio", "ratio", "lower"),
    ("exact.cols_per_epoch", "cols/epoch", "higher"),
    ("exact.search.combos_per_col", "combos/col", "lower"),
    ("exact.search.accept_ratio", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def metric_specs():
    """(name, unit, better) of every per-layer metric, in print order."""
    specs = []
    for target in TARGETS:
        specs.append((f"{target}.calls_per_col", "calls/col", "lower"))
        specs.append((f"{target}.self_us_per_col", "us/col", "lower"))
    return specs + list(DERIVED)


def resolve(target):
    """(owner, attribute, function) for a target; raises if it is gone.

    A renamed or removed function must fail here rather than record zero
    calls.
    """
    module, _, qualname = target.partition(".")
    owner = importlib.import_module(f"lifelong_mc.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
    if not callable(fn):
        raise TypeError(f"{target} is not callable")
    return owner, attr, fn


class Tracer:
    """In-memory span recorder over TARGETS plus the benchmark's own spans."""

    def __init__(self):
        for target in TARGETS:
            resolve(target)
        self.labels = list(TARGETS)
        self._index = {label: i for i, label in enumerate(self.labels)}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.result_counts = dict.fromkeys(_RESULT_COUNTS, 0)
        self._stack = []
        self._op = -1
        self._saved = []

    def next_op(self):
        self._op += 1

    def _open(self, ix):
        i = len(self.name)
        self.name.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label):
        if label not in self._index:
            self._index[label] = len(self.labels)
            self.labels.append(label)
        i = self._open(self._index[label])
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, target, fn):
        ix = self._index[target]
        count = _RESULT_COUNTS.get(target)

        def traced(*args, **kwargs):
            i = self._open(ix)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count:
                self.result_counts[target] += count(out)
            return out

        return update_wrapper(traced, fn)

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "lifelong_mc" or name.startswith("lifelong_mc.")]
        try:
            for target in TARGETS:
                owner, attr, fn = resolve(target)
                wrapper = self._wrap(target, fn)
                if inspect.isclass(owner):
                    sites = [(owner, attr)]
                else:
                    sites = [(mod, name) for mod in modules
                             for name, value in vars(mod).items() if value is fn]
                for obj, name in sites:
                    self._saved.append((obj, name, fn))
                    setattr(obj, name, wrapper)
            yield self
        finally:
            while self._saved:
                obj, name, fn = self._saved.pop()
                setattr(obj, name, fn)

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return name, parent, dur - child

    def metrics(self, columns, overhead):
        """Per-layer metrics over `columns` traced columns, with the
        measured tracing overhead."""
        name, parent, self_time = self._arrays()
        n = len(self.labels)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=self_time, minlength=n)
        ix = self._index

        def per_col(x):
            return float(x) / columns

        def ratio(a, b):
            return float(a) / float(b) if b else 0.0

        out = {}
        for target in TARGETS:
            out[f"{target}.calls_per_col"] = per_col(calls[ix[target]])
            out[f"{target}.self_us_per_col"] = per_col(self_s[ix[target]] * 1e6)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        linalg = [ix[t] for t in TARGETS if t.startswith("linalg.")]
        tracker_absorbs = np.sum((name == ix["linalg.extend_basis"])
                                 & (parent_name == ix["tracker.process_column"]))
        epochs = np.sum((name == ix["exact._SampledDictionary.__init__"])
                        & (parent_name == ix["exact.run_exact"]))
        exact_cols = columns if calls[ix["exact.run_exact"]] else 0
        out["linalg.calls_per_col"] = per_col(calls[linalg].sum())
        out["tracker.absorb_ratio"] = per_col(tracker_absorbs)
        out["exact.absorb_ratio"] = per_col(calls[ix["exact.BasisDictionary.append"]])
        out["exact.cols_per_epoch"] = ratio(exact_cols, epochs)
        out["exact.search.combos_per_col"] = per_col(
            self.result_counts["exact._SampledDictionary.screen"])
        out["exact.search.accept_ratio"] = ratio(
            self.result_counts["exact._first_sparse_support"],
            calls[ix["exact._lstsq_with_residual"]])
        out["trace.overhead"] = overhead
        return out

    def write(self, path):
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
