"""Smoke run of the benchmark: every workload at tiny sizes, traced and not.

``run.py --smoke`` fails unless each run emits exactly the metrics that
BENCHMARK.json names (plus ops_failed_frac in its report) and no stage call
or correctness check fails.  It runs in a fresh interpreter so that the
BLAS thread pin is applied before numpy loads.
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")
