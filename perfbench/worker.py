"""One benchmark worker: a fresh process that sets up a workload and runs it.

  python3 perfbench/worker.py --root DIR --work DIR --workload NAME --seed N
                              --seconds S --mode setup|measure|trace

Every mode first times its set-up: importing ``swapsim`` from ``DIR/src``
(numpy included, as this module imports only the standard library before
it) and generating the workload's inputs, then runs a few calibration units.
``setup`` stops there. ``measure`` runs one warm-up pass, then a closed loop
of passes for ``S`` seconds, each started when the previous one returned,
and checks every pass's outputs. Between passes it runs calibration units,
about 5% of the time, which sample the machine's speed over the run.
``trace`` alternates untraced and traced passes (at least two of each) and
reports per-layer counts and self times. The last line of standard output
is one JSON object with the raw figures; run.py turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

MIN_TRACED_PASSES = 2
MAX_REPORTED_FAILURES = 5
CAL_SHARE = 0.05  # share of the measuring time spent on the calibration unit
SETUP_CAL_UNITS = 5


def calibration_unit() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy calls.

    It resembles swapsim's own work but runs no swapsim code, so no change to
    the program can move it; only the speed of the machine does.
    """
    import numpy as np

    m = np.eye(4) * 0.5
    started = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        k = np.kron(m, m)
        acc += float(np.trace(k @ k)) + sum(range(50))
    return time.perf_counter() - started


def _call(main, argv) -> int:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return 0 if code is None else code


def run_pass(wl, i, tr=None):
    """Run pass ``i``; return (seconds, problems, sha256 per CSV)."""
    cli = sys.modules["swapsim.cli"]  # looked up per pass: the tracer rebinds main
    wl.prepare()
    argvs = wl.argvs(i)
    out, err = io.StringIO(), io.StringIO()
    codes, error = [], None
    if tr is not None:
        tr.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                for argv in argvs:
                    codes.append(_call(cli.main, argv))
            except Exception:  # a pass that raises counts as failed
                error = traceback.format_exc(limit=-3)
            seconds = time.perf_counter() - started
    finally:
        if tr is not None:
            tr.uninstall()
    if error is not None:
        return seconds, [error], {}
    problems, hashes = wl.check(i, codes, out.getvalue())
    if problems and err.getvalue():
        problems.append("stderr: " + err.getvalue().strip()[-500:])
    return seconds, problems, hashes


def _environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def measure(wl, seconds):
    _, warmup_problems, _ = run_pass(wl, 0)  # warm-up: checked, not timed
    times, failures, hashes = [], [], {}
    cal, cal_at = [], []  # unit seconds; timed passes run before each unit
    i = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        while sum(cal) <= CAL_SHARE * sum(times):
            cal.append(calibration_unit())
            cal_at.append(len(times))
        dt, problems, h = run_pass(wl, i)
        times.append(dt)
        if problems:
            failures.append({"pass": i, "problems": problems})
        elif not hashes:
            hashes = h
        i += 1
    return {
        "pass_s": times,
        "cal_s": cal,
        "cal_at": cal_at,
        "failures": len(failures),
        "failure_detail": failures[:MAX_REPORTED_FAILURES],
        "warmup_problems": warmup_problems,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "csv_sha256": hashes,
    }


def trace(wl, seconds):
    """Alternate untraced and traced passes; the traced ones give the spans."""
    tr = tracer.Tracer()
    _, warmup_problems, _ = run_pass(wl, 0)
    plain_s, traced_s, calls_per_pass, failures = [], [], [], []
    self_ns, out_bytes = {}, []
    i = 1
    deadline = time.perf_counter() + seconds
    while len(traced_s) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        for traced in (False, True):
            dt, problems, _ = run_pass(wl, i, tr if traced else None)
            if problems:
                failures.append({"pass": i, "problems": problems})
            i += 1
            if not traced:
                plain_s.append(dt)
                continue
            calls, ns = tr.take()
            traced_s.append(dt)
            calls_per_pass.append(calls)
            for key, value in ns.items():
                self_ns[key] = self_ns.get(key, 0) + value
            out_bytes.append(wl.out_bytes())
    problems = sorted(tr.problems)
    if any(c != calls_per_pass[0] for c in calls_per_pass):
        problems.append("call counts differ between traced passes")
    missing = [k for k in workloads.EXPECTED_SPANS[wl.name] if k not in calls_per_pass[0]]
    if missing:
        problems.append(f"expected spans missing: {missing}")
    return {
        "plain_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "calls_per_pass": calls_per_pass[0],
        "self_ns_total": self_ns,
        "out_bytes_per_pass": out_bytes,
        "failures": len(failures),
        "failure_detail": failures[:MAX_REPORTED_FAILURES],
        "warmup_problems": warmup_problems,
        "trace_problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, str(args.root / "src"))
    import swapsim.cli  # noqa: F401  (the import is what set-up time measures)

    wl = workloads.WORKLOADS[args.workload](args.root, args.work, args.seed)
    result = {
        "setup_s": time.perf_counter() - started,
        "setup_cal_s": [calibration_unit() for _ in range(SETUP_CAL_UNITS)],
    }
    if args.mode == "measure":
        result.update(measure(wl, args.seconds))
    elif args.mode == "trace":
        result.update(trace(wl, args.seconds))
    result.update(
        workload=wl.name,
        item=wl.item,
        items_per_pass=wl.items_per_pass,
        input_size=wl.input_size(),
        environment=_environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
