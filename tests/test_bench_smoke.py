"""The benchmark's self-test runs as part of the suite.

bench/run.py replaces harness._sweep_cell and harness.run_single at run time
and wraps the layer functions named in bench/spans.TARGETS, so a refactor
that bypasses those names or renames a traced function fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke ok" in proc.stdout
