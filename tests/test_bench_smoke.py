"""The benchmark contract at its smallest: one traced cycle per workload.

A renamed function that ``bench/tracer.py`` binds, or a layer that
``bench/layers.json`` expects to work and that reads zero, fails here
rather than only in a full benchmark run.  Each run takes 0.2-0.5 s; the
four start together, so the module costs about the slowest one.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["grid-direct", "two-path", "verify-suite", "gamma-sweep"]


@pytest.fixture(scope="module")
def runs():
    procs = {w: subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", w, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for w in WORKLOADS}
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.communicate()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_cycle_passes(runs, workload):
    out, err = runs[workload].communicate(timeout=120)
    assert runs[workload].returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
