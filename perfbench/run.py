"""swapsim benchmark: one workload, its outputs checked, its metrics printed.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; swapsim is imported from ``src/``.
The load is a closed loop: one client in one worker process, no ``--jobs``,
each pass starting when the previous one returned.

``--trace 0`` prints the end-to-end metrics: throughput, median and tail
pass time, set-up time (median over several fresh worker processes),
peak RSS of the worker and the share of passes that succeeded. Times are
scaled to a reference machine speed (see ``CAL_REF_S``); the raw figures
are printed beside them. ``--trace 1`` prints the per-layer metrics from a
run that alternates untraced and traced passes. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, the input sizes,
the tail percentile and the CSV digests. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"
# setup-only workers, half before and half after the measuring worker so
# that drift in the machine's speed during a run reaches both alike; one
# more, discarded, warms the file cache first
SETUP_SAMPLES = 6
TIME_LIMIT_S = 170  # the whole run, all workers included
TAIL_BEYOND = 10
# The machine's speed drifts: on the 2-core box where the baseline was taken
# the same pass slowed by half within twenty minutes. Every reported time is
# therefore scaled to the speed at which worker.calibration_unit takes
# CAL_REF_S, about what it took there when the box was quiet, using the
# LOCAL_UNITS calibration units run nearest to it. The raw figures are
# printed beside the scaled ones.
CAL_REF_S = 0.006
LOCAL_UNITS = 5

# traced, but on no workload called; a self time that is 0 on every run is
# printed but not reported as a metric
UNCALLED = ("states.validate",)


def tail_percentile(samples):
    """(value, percentile) of the highest percentile with at least
    ten samples beyond it: the eleventh-largest sample, at or below which
    lie 100 (n - 10) / n percent of the n samples. With fewer than eleven
    samples no percentile qualifies and the largest sample is returned at
    percentile 100."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or "unknown"


class Runner:
    def __init__(self, args, work: Path):
        self.args, self.work = args, work
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def worker(self, mode: str, tag: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(WORKER), "--root", str(ROOT),
               "--work", str(self.work / tag), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--mode", mode]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"{mode} worker exited with code {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def _scale(cal_s):
    """Factor that turns a time measured alongside ``cal_s`` into reference time."""
    return CAL_REF_S / statistics.median(cal_s)


def scaled_pass_times(times, cal_s, cal_at):
    """Each pass time scaled by the speed measured around it.

    Unit ``u`` ran after ``cal_at[u]`` timed passes, so it sits half a pass
    from the passes either side of it; pass ``j`` uses the ``LOCAL_UNITS``
    units nearest to it.
    """
    scaled = []
    for j, t in enumerate(times):
        near = sorted(range(len(cal_s)), key=lambda u: abs(cal_at[u] - j - 0.5))
        scaled.append(t * _scale([cal_s[u] for u in near[:LOCAL_UNITS]]))
    return scaled


def end_to_end(runner: Runner):
    runner.worker("setup", "setup-warm")
    half = SETUP_SAMPLES // 2
    workers = [runner.worker("setup", f"setup-{k}") for k in range(half)]
    r = runner.worker("measure", "measure")
    workers.append(r)
    workers += [runner.worker("setup", f"setup-{k}") for k in range(half, SETUP_SAMPLES)]
    raw_setups = [w["setup_s"] for w in workers]
    setups = [w["setup_s"] * _scale(w["setup_cal_s"]) for w in workers]
    times = r["pass_s"]
    scaled = scaled_pass_times(times, r["cal_s"], r["cal_at"])
    n = len(times)
    tail, pct = tail_percentile(scaled)
    raw = {
        "throughput": n * r["items_per_pass"] / sum(times),
        "pass_p50_ms": 1e3 * statistics.median(times),
        "pass_tail_ms": 1e3 * tail_percentile(times)[0],
        "setup_s": statistics.median(raw_setups),
    }
    metrics = {
        "throughput": (n * r["items_per_pass"] / sum(scaled), "items/s"),
        "pass_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "pass_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (r["peak_rss_kb"] / 1024.0, "MB"),
        "ok_share": ((n - r["failures"]) / n, "share"),
    }
    notes = {
        "throughput": f"({r['item']} per second; raw {raw['throughput']:.6g})",
        "pass_p50_ms": f"(raw {raw['pass_p50_ms']:.6g})",
        "pass_tail_ms": f"(raw {raw['pass_tail_ms']:.6g}; p{pct:.1f} of {n} passes: "
                        f"the highest percentile with {TAIL_BEYOND} passes beyond it)",
        "setup_s": f"(raw {raw['setup_s']:.6g}; median of {len(setups)} fresh workers)",
        "ok_share": f"(failed_share {r['failures'] / n:.4g}: "
                    f"{r['failures']} of {n} passes failed)",
    }
    detail = {
        "passes": n,
        "tail_percentile": pct,
        "failed_share": r["failures"] / n,
        "raw": raw,
        "machine_speed": _scale(r["cal_s"]),
        "calibration_units": len(r["cal_s"]),
        "setup_samples_raw_s": raw_setups,
        "csv_sha256": r["csv_sha256"],
    }
    problems = [f"warm-up: {p}" for p in r["warmup_problems"]]
    return r, metrics, notes, detail, problems, n


def per_layer(runner: Runner):
    r = runner.worker("trace", "trace")
    traced = r["traced_pass_s"]
    k = len(traced)
    wall_ns = 1e9 * sum(traced)
    calls, self_ns = r["calls_per_pass"], r["self_ns_total"]
    metrics, notes = {}, {}
    for key in tracer.KEYS:
        metrics[f"{key}.calls"] = (calls.get(key, 0), "count")
        self_ms = (self_ns.get(key, 0) / 1e6 / k, "ms")
        if key in UNCALLED:
            notes[f"{key}.calls"] = f"(self_ms {self_ms[0]}: not reported as a metric)"
        else:
            metrics[f"{key}.self_ms"] = self_ms
    for layer, fns in tracer.TARGETS.items():
        layer_ns = sum(self_ns.get(f"{layer}.{fn}", 0) for fn in fns)
        metrics[f"{layer}.self_share"] = (layer_ns / wall_ns, "share")
    metrics["recipes.out_bytes"] = (statistics.median_low(r["out_bytes_per_pass"]), "bytes")
    metrics["protocol.swap.calls_per_item"] = (
        calls.get("protocol.swap", 0) / r["items_per_pass"], "calls/item")
    metrics["trace.overhead"] = (
        statistics.median(r["plain_pass_s"]) / statistics.median(traced), "ratio")
    notes["trace.overhead"] = (f"(traced over untraced throughput, {k} traced and "
                               f"{len(r['plain_pass_s'])} untraced passes)")
    detail = {"traced_passes": k, "untraced_passes": len(r["plain_pass_s"])}
    problems = [f"warm-up: {p}" for p in r["warmup_problems"]] + r["trace_problems"]
    return r, metrics, notes, detail, problems, k + len(r["plain_pass_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "swapsim" / "__init__.py").is_file():
        print(f"no swapsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK_DIR / f"run-{args.workload}-{time.time_ns()}"
    try:
        runner = Runner(args, work)
        r, metrics, notes, detail, problems, attempted = (
            per_layer(runner) if args.trace else end_to_end(runner))
    except (RuntimeError, ValueError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    for failure in r["failure_detail"]:
        print(f"pass {failure['pass']} failed: {failure['problems']}", file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    env, commit = r["environment"], git_commit(ROOT)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}, commit {commit}")
    print(f"python {env['python']}, numpy {env['numpy']}, {env['platform']}, "
          f"cpu_count {env['cpu_count']}")
    print(f"input size: {json.dumps(r['input_size'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<10} {notes.get(name, '')}")
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  commit=commit, environment=env, input_size=r["input_size"],
                  problems=problems)
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": r["failures"] == 0 and not problems,
        "attempted": attempted,
        "failed": r["failures"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
