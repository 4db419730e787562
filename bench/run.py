"""Benchmark of the lifelong-mc package: four seeded workloads, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout. One process runs the workload's batches
back to back, each starting only after the previous one has finished: one
client, no worker pool, BLAS threading as the environment sets it. Batches
continue until their timed regions add up to about --seconds.

--trace 0 prints the end-to-end metrics. --trace 1 runs every batch twice
on the same seed, untraced and then traced, and prints the per-layer
metrics of the traced copies plus the tracing overhead between the pairs.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. The lines before it give provenance, a digest of the
discrete results, and every metric with its unit.

--smoke runs every workload at a tiny size in both modes and checks that
every metric named in BENCHMARK.json prints with its unit, that every
operation was checked, and that every traced function still exists.

Exit status: 0 with a result line; 2, without one, when the package
cannot be imported from src/ of this checkout.
"""

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("tracker_stream", "exact_sweep", "exact_churn", "mixture_search")
IMPORT_REPEATS = 5
WARMUP_PART = 1 << 40
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("columns_per_s", "columns/s"),
    ("trial_ms.p50", "ms"),
    ("trial_ms.p90", "ms"),
    ("cpu_s_per_kcol", "s/kcol"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed with the end-to-end metrics but left out of the result line's
# metrics: they are exact counts, 0 or identical on every run of a
# workload when results are right, so they carry no timing bound. failed
# reaches the result line as `failed` / `attempted`; entries read change
# only when results do, which the digest shows.
COUNTS = (
    ("failed_frac", "fraction"),
    ("entries_per_col", "entries/col"),
)

_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import lifelong_mc\n"
    "print(time.perf_counter() - t, lifelong_mc.__file__)\n"
)


class SetupError(RuntimeError):
    """The package under test cannot be loaded from this checkout."""


def _from_src(path):
    return Path(path).resolve().is_relative_to(SRC)


def load_package():
    """Import lifelong_mc from src/ of this checkout, never from elsewhere."""
    if not (SRC / "lifelong_mc" / "__init__.py").is_file():
        raise SetupError(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lifelong_mc

    if not _from_src(lifelong_mc.__file__):
        raise SetupError(f"lifelong_mc imported from {lifelong_mc.__file__}, not {SRC}")
    return lifelong_mc


def import_seconds():
    """Time to import the package in fresh interpreters, one per repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, path = proc.stdout.split(maxsplit=1)
        if not _from_src(path.strip()):
            raise SetupError(f"fresh interpreter imported lifelong_mc from {path.strip()}")
        times.append(float(seconds))
    return times


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info():
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                threads = int(getter())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def provenance(cache_warm):
    import numpy as np

    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": {var: os.environ.get(var) for var in BLAS_ENV + ("LIFELONG_MC_THREADS",)},
        "loop": "closed, one client, no worker pool",
        "combination_cache_warm": cache_warm,
    }


def digest(batches, n_ops):
    """SHA-256 over the discrete records of the first n_ops operations (and
    the CSV of every batch among them), so runs of different length that
    share a seed compare equal when their results do."""
    h = hashlib.sha256()
    done = 0
    for batch in batches:
        if done >= n_ops:
            break
        for op in batch.ops:
            h.update(json.dumps(op.record, sort_keys=True).encode())
        h.update(batch.digest_bytes)
        done += len(batch.ops)
    return h.hexdigest(), done


def measure(wl, seed, seconds, tracer, mix_seed):
    """Closed loop over seeded batches until the timed regions add up to
    about `seconds`; with a tracer each batch is rerun traced, same seed."""
    untraced, traced = [], []
    spent = 0.0
    i = 0
    while i == 0 or spent + spent / i / 2 < seconds:
        batch_seed = mix_seed(seed, i)
        untraced.append(wl.run_batch(batch_seed, None))
        spent += untraced[-1].timed
        if tracer:
            traced.append(wl.run_batch(batch_seed, tracer))
            spent += traced[-1].timed
        i += 1
    return untraced, traced


def end_to_end(untraced, import_times):
    ops = [op for b in untraced for op in b.ops]
    columns = sum(op.columns for op in ops)
    ms = sorted(op.seconds * 1e3 for op in ops)
    p50, p90 = statistics.quantiles(ms, n=10, method="inclusive")[4::4] if len(ms) > 1 else ms * 2
    gens = [b.gen for b in untraced if b.gen is not None]
    return {
        "columns_per_s": columns / sum(b.timed for b in untraced),
        "trial_ms.p50": p50,
        "trial_ms.p90": p90,
        "cpu_s_per_kcol": sum(b.cpu for b in untraced) / columns * 1e3,
        "setup_s": statistics.median(import_times) + (statistics.median(gens) if gens else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def counts(ops):
    """failed_frac over all operations; entries_per_col, d + (m-d) absorbed/n,
    over the operations that completed."""
    read = [op for op in ops if op.entries is not None]
    return {
        "failed_frac": sum(not op.ok for op in ops) / len(ops),
        "entries_per_col": sum(op.entries for op in read) / sum(op.columns for op in read)
        if read else math.nan,
    }


def run(name, seed, seconds, trace, smoke=False):
    """Run one workload and print its result; returns the parsed result."""
    load_package()
    from lifelong_mc import exact
    from lifelong_mc.harness import mix_seed

    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(name, str(OUT), smoke)
    import_times = [] if trace else import_seconds()
    tracer = spans.Tracer() if trace else None

    wl.warm_up(mix_seed(seed, WARMUP_PART))
    cache_warm = exact._combination_array.cache_info().currsize > 0
    cache_before = exact._combination_array.cache_info()
    untraced, traced = measure(wl, seed, seconds, tracer, mix_seed)
    cache_after = exact._combination_array.cache_info()

    ops = [op for b in untraced + traced for op in b.ops]
    failed = sum(not op.ok for op in ops)
    checked = sum(op.checked for op in ops)
    if trace:
        columns = sum(op.columns for b in traced for op in b.ops)
        overhead = sum(b.timed for b in traced) / sum(b.timed for b in untraced) - 1
        metrics = spans.metric_specs(), tracer.metrics(columns, overhead)
        tracer.write(OUT / f"spans-{name}.npz")
    else:
        metrics = END_TO_END, end_to_end(untraced, import_times)

    units, values = metrics
    sha, n_digest = digest(untraced, wl.digest_ops)
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("provenance " + json.dumps(provenance(cache_warm), sort_keys=True))
    print(f"batches {len(untraced)} untraced, {len(traced)} traced; "
          f"operations {len(ops)}, checked {checked}, failed {failed}")
    print(f"combination_cache timed-region hits {cache_after.hits - cache_before.hits} "
          f"misses {cache_after.misses - cache_before.misses} size {cache_after.currsize}")
    print(f"digest {sha} over the first {n_digest} operations")
    if not trace:
        exact_counts = counts(ops)
        for metric, unit in COUNTS:
            print(f"{metric:<56} {exact_counts[metric]!r} {unit}")
    for metric, unit, *_ in units:
        print(f"{metric:<56} {values[metric]!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit, *_ in units},
    }
    print(json.dumps(result))
    return result, checked


def _require(ok, message):
    if not ok:
        raise SystemExit(f"smoke: {message}")


def smoke():
    """Every workload at tiny size, both modes, against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    load_package()
    import spans

    for target in spans.TARGETS:
        spans.resolve(target)
    names = [w["name"] for w in spec["workloads"]]
    _require(sorted(names) == sorted(WORKLOADS), f"workloads {names}")
    for name in names:
        for trace in (0, 1):
            buf = io.StringIO()
            with redirect_stdout(buf):
                result, checked = run(name, 0, 0.01, trace, smoke=True)
            lines = buf.getvalue().splitlines()
            printed = json.loads(lines[-1])
            where = f"{name} trace {trace}"
            _require(printed == json.loads(json.dumps(result)), f"{where}: last line")
            _require(printed["correct"] and printed["failed"] == 0, f"{where}: failed checks")
            _require(checked == printed["attempted"] >= 1, f"{where}: unchecked operations")
            got = {k: v["unit"] for k, v in printed["metrics"].items()}
            _require(got == wanted[trace], f"{where}: metrics {sorted(set(got) ^ set(wanted[trace]))}")
            for metric, entry in printed["metrics"].items():
                _require(math.isfinite(entry["value"]), f"{where}: {metric} = {entry['value']}")
            for metric, unit in COUNTS if trace == 0 else ():
                _require(any(ln.split()[0::2] == [metric, unit] for ln in lines),
                         f"{where}: no {metric} line in {unit}")
            print(f"smoke {where}: {printed['attempted']} operations checked, "
                  f"{len(got)} metrics")
    print("smoke ok")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.smoke:
            smoke()
        else:
            run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
