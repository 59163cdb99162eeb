"""besselwave benchmark.

Run from the repository root:

    python3 bench/run.py --workload grid-direct --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the same checkout; nothing is
installed.  Each workload runs one client in one process as a closed
loop: an operation starts when the previous one has finished.  The timed
phase runs whole cycles of operations (see ``workloads.py``) until
``--seconds`` have passed.  Every operation's output is checked after the
timed phase.

``--trace 0`` prints the end-to-end metrics.  Their times are reported at
the reference speed of ``speed.py``, which removes the host's speed swings;
the raw times are in the detail line.  ``--trace 1`` alternates untraced
and traced cycles and prints the per-layer metrics of ``tracer.py`` with
the tracing overhead (traced over untraced wall time); it fails loudly
when a layer that ``layers.json`` expects to work on the workload reads
zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the run's details: machine facts, set-up samples, the tail
percentile and its sample count, the error rate and any failures.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3        # set-up is timed this many times, median reported
TAIL_BEYOND = 10         # ops that must lie beyond the tail percentile
# The tail is taken at the highest of these percentiles that leaves
# TAIL_BEYOND ops beyond it, so that it does not drift with the op count.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_OPS = TAIL_BEYOND + 1
HARD_STOP_S = 120.0      # no new cycle starts after this much wall time

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s",
             "op_s.tail": "s", "peak_rss_mb": "MB", "accuracy.digits": "digits"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for the "
                        "set-up samples)")
    return p.parse_args(argv)


def machine_facts(loadavg_start) -> dict:
    import mpmath
    import numpy
    import scipy

    facts = {"nproc": os.cpu_count(), "loadavg_start": loadavg_start,
             "python": platform.python_version(), "numpy": numpy.__version__,
             "scipy": scipy.__version__, "mpmath": mpmath.__version__,
             "machine": platform.machine()}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"] = _openblas_threads(numpy)
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            caches[f"L{level}-{kind}"] = Path(index, "size").read_text().strip()
        except OSError:
            continue
    facts["caches"] = caches
    return facts


def _openblas_threads(numpy):
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs"
                         / "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def package_modules() -> dict:
    import importlib

    from tracer import LAYERS
    return {layer: importlib.import_module(f"besselwave.{layer}")
            for layer in LAYERS}


def timed_setup(name: str, seed: int, before_warm=None):
    """Import, input build and first cold evaluation, timed together.

    Returns the workload and the set-up's (start, end) clock readings.
    """
    start = time.perf_counter()
    import workloads  # imports numpy and the package
    origin = Path(sys.modules["besselwave.solver"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"besselwave was imported from {origin}, not {SRC}")
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](seed)
    if before_warm is not None:
        before_warm()
    wl.warm()
    return wl, (start, time.perf_counter())


def setup_in_subprocess(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cycles(wl, first_cycle: int, seconds: float, cycles: int | None = None,
               elapsed=None):
    """Closed loop over whole cycles; returns (records, wall, next cycle).

    Without ``cycles`` it runs until ``elapsed(start)`` (by default the
    wall time since ``start``) reaches ``seconds`` and at least MIN_OPS
    ops were made.  A record is [op, result, start, end, error].
    """
    records = []
    index = first_cycle
    start = time.perf_counter()
    while True:
        for op in wl.cycle(index):
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # counted as a failed op
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append([op, result, t0, time.perf_counter(), error])
        index += 1
        wall = time.perf_counter() - start
        if cycles is not None:
            if index - first_cycle >= cycles:
                break
        elif wall > HARD_STOP_S or (len(records) >= MIN_OPS and (
                elapsed(start) if elapsed else wall) >= seconds):
            break
    return records, time.perf_counter() - start, index


def check_records(records):
    """Untimed output checks; returns (failed, accuracy figures, notes)."""
    failed, figures, notes = 0, [], []
    for op, result, _, _, error in records:
        if error is None:
            try:
                ok, figure, note = op.check(result)
            except Exception as exc:
                ok, figure, note = False, None, f"check raised {exc!r}"
            if figure is not None:
                figures.append(figure)
            error = None if ok else note
        if error is not None:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{op.kind}: {error}")
    return failed, figures, notes


def latency_summary(kinds, latencies) -> dict:
    lat = sorted(latencies)
    n = len(lat)
    tail_index = n - 1 - TAIL_BEYOND          # the exact fallback
    tail_pct = 100.0 * tail_index / max(n - 1, 1)
    for pct in TAIL_LADDER:
        index = math.ceil(pct / 100.0 * n) - 1   # nearest rank
        if n - 1 - index >= TAIL_BEYOND:
            tail_index, tail_pct = index, pct
            break
    by_kind = {}
    for kind, latency in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(latency)
    return {"p50": statistics.median(lat), "tail": lat[tail_index],
            "tail_percentile": round(tail_pct, 2),
            "samples": n,
            "by_kind": {k: {"ops": len(v), "p50_s": statistics.median(v)}
                        for k, v in sorted(by_kind.items())}}


def run_plain(args, detail) -> dict:
    """End-to-end metrics; every time is reported at the reference speed
    of ``speed.py``, and the raw times go to the detail line."""
    samples = [setup_in_subprocess(args.workload, args.seed)
               for _ in range(SETUP_SAMPLES - 1)]
    with SpeedProbe() as probe:
        wl, span = timed_setup(args.workload, args.seed)
        samples.append({"setup_s": probe.at_reference(*span),
                        "raw_s": span[1] - span[0]})
        records, wall, _ = run_cycles(
            wl, 0, args.seconds,
            elapsed=lambda t0: probe.at_reference(t0, time.perf_counter()))
    detail["setup_samples"] = samples

    failed, figures, notes = check_records(records)
    kinds = [r[0].kind for r in records]
    lat_ref = [probe.at_reference(r[2], r[3]) for r in records]
    lat = latency_summary(kinds, lat_ref)
    raw = latency_summary(kinds, [r[3] - r[2] for r in records])
    detail.update(
        timed_s=wall, slowdown=probe.slowdown(records[0][2], records[-1][3]),
        speed_samples=probe.count, tail_percentile=lat["tail_percentile"],
        tail_samples=lat["samples"], ops_by_kind=lat["by_kind"],
        raw={"ops_per_s": len(records) / wall, "op_s.p50": raw["p50"],
             "op_s.tail": raw["tail"],
             "setup_s": statistics.median(s["raw_s"] for s in samples)},
        error_rate=failed / len(records), failures=notes)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "ops_per_s": len(records) / sum(lat_ref),
        "op_s.p50": lat["p50"],
        "op_s.tail": lat["tail"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy.digits": wl.accuracy_digits(figures),
    }
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                        for k, v in values.items()}}


def run_traced(args, detail) -> dict:
    """Alternate untraced and traced cycles, so that both see the same
    machine state; the per-layer figures cover the traced cycles."""
    from tracer import Tracer

    spec = json.loads((BENCH / "layers.json").read_text())["metrics"]
    holder = {}

    def install():
        holder["tracer"] = Tracer(package_modules())
        holder["tracer"].install()

    wl, _ = timed_setup(args.workload, args.seed, before_warm=install)
    tracer = holder["tracer"]
    tracer.uninstall()
    setup_builds = tracer.counts["quadrature.radial_rule.builds"]
    setup_build_s = tracer.counts["quadrature.radial_rule.build_s"]
    tracer.reset()

    plain, traced, walls = [], [], [0.0, 0.0]
    index = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        records, wall, index = run_cycles(wl, index, 0.0, cycles=1)
        plain += records
        walls[0] += wall
        tracer.install()
        try:
            records, wall, index = run_cycles(wl, index, 0.0, cycles=1)
        finally:
            tracer.uninstall()
        traced += records
        walls[1] += wall
    values = tracer.metrics()

    failed, _, notes = check_records(plain + traced)
    values.update(wl.layer_figures([r[1] for r in traced if r[4] is None]))
    values["setup.radial_rule.builds"] = setup_builds
    values["setup.radial_rule.build_s"] = setup_build_s
    values["trace.ops"] = len(traced)
    values["trace.overhead"] = walls[1] / walls[0]
    detail.update(untraced_s=walls[0], traced_s=walls[1],
                  error_rate=failed / len(plain + traced), failures=notes)

    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise SystemExit(f"per-layer metric set mismatch: "
                         f"{sorted(set(names) ^ set(values))}")
    silent = [m["name"] for m in spec
              if args.workload in m["nonzero_on"] and values[m["name"]] == 0]
    if silent:
        raise SystemExit(f"layers expected to work on {args.workload} read "
                         f"zero (a missed binding?): {', '.join(silent)}")
    return {"correct": failed == 0, "attempted": len(plain) + len(traced),
            "failed": failed,
            "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                    "unit": m["unit"]} for m in spec}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "besselwave" / "solver.py").is_file():
        print(f"error: no besselwave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One BLAS thread: the timed thread then depends on one vCPU only,
    # whose speed the probe of speed.py measures.  A second BLAS thread
    # made op times follow the load on the other vCPU, which the probe
    # cannot see.  Set before numpy is imported; inherited by the set-up
    # samples.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    if args.setup_only:
        with SpeedProbe() as probe:
            _, span = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": probe.at_reference(*span),
                          "raw_s": span[1] - span[0]}))
        return 0
    loadavg = os.getloadavg()
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    result = (run_traced if args.trace else run_plain)(args, detail)
    detail["machine"] = machine_facts(loadavg)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
