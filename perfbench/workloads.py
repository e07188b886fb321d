"""The benchmark's workloads: inputs made from the seed, the passes, the output checks.

A pass is a list of ``swapsim.cli.main`` argument vectors run back to back
in one process. Every checker returns a list of problems, empty when the
pass's outputs are right. This module imports only the standard library at
load time, so that a worker's set-up time counts the import of numpy as
part of importing swapsim.

  oracle-check     ``swapsim check --draws 1000`` with seed ``seed + pass``:
                   the brute-force route (dilation, trace-out, projection)
                   and the closed forms, draw by draw.
  surface-grid     ``swapsim run`` on a 300 x 300 ``concurrence-surface``
                   (90 000 points, a ~5 MB CSV): the recipe's per-point loop
                   and CSV writing, with no brute force at all.
  bundled-configs  ``swapsim run --seed --dump-state`` over the bundled
                   configs except oracle_check.cfg: small grids, where fixed
                   per-run costs (parsing, file and sidecar writing, Poisson
                   counts, cosine fits) dominate.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from pathlib import Path

ORACLE_DRAWS = 1000
# tolerances ``swapsim check`` must report: state entries, heralding
# probability, concurrence
ORACLE_TOLERANCES = ("1e-12", "1e-12", "1e-10")
_CHECK_LINE = re.compile(r"^(PASS|FAIL) .*: max deviation (\S+) \(tolerance (\S+)\)$")

SURFACE_SIDE = 300
SURFACE_RANGE = (0.01, 1.0)
SURFACE_TOL = 1e-12

CSV_HEADERS = {
    "concurrence-surface": "t1,t2,concurrence",
    "concurrence-slices": "t1,t2,concurrence,visibility,p_success",
    "theta-fringes": "setting,theta_rad,outcome_sign,probability,expected_counts,counts",
    "scaling-balanced": "t,t1,p_success,p_normalized",
    "imbalance-restore": (
        "t1,t2,strategy,visibility,concurrence,bell_fidelity,p_success,p_normalized"
    ),
}
COUNTS_HEADER = "theta_rad,outcome_sign,counts"
FRINGE_TAGS = ("Xp", "Xm", "Yp", "Ym", "Zp", "Zm")
META_KEYS = ("experiment", "config", "library_version", "wall_time_s", "rows",
             "summary", "files")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _exit_problems(codes) -> list[str]:
    return [f"run {i} exited with code {c}" for i, c in enumerate(codes) if c != 0]


def check_oracle(codes, stdout: str) -> list[str]:
    """Exit 0 and exactly three PASS lines at the unchanged tolerances."""
    problems = _exit_problems(codes)
    lines = [m for m in map(_CHECK_LINE.match, stdout.splitlines()) if m]
    if len(lines) != len(ORACLE_TOLERANCES):
        problems.append(f"expected {len(ORACLE_TOLERANCES)} check lines, got {len(lines)}")
    for m, tol in zip(lines, ORACLE_TOLERANCES):
        status, dev, printed_tol = m.groups()
        if status != "PASS" or printed_tol != tol or not float(dev) <= float(tol):
            problems.append(f"bad check line: {m.group(0)!r}")
    return problems


def surface_grid(n: int = SURFACE_SIDE):
    import numpy as np

    return np.linspace(*SURFACE_RANGE, n)


def check_surface(codes, csv_path, grid) -> list[str]:
    """Documented header, one row per grid point in grid order, and each
    concurrence within 1e-12 of 2|a b g d| t1 t2 / N for maximally entangled
    inputs (every amplitude 1/sqrt(2)), computed here with numpy."""
    import numpy as np

    problems = _exit_problems(codes)
    try:
        fh = open(csv_path, encoding="utf-8")
    except OSError as exc:
        return problems + [f"cannot read {csv_path}: {exc}"]
    with fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADERS["concurrence-surface"]:
            problems.append(f"bad header {header!r}")
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return problems + [f"malformed row: {exc}"]
    n = grid.size
    if rows.shape != (n * n, 3):
        return problems + [f"expected {n * n} rows of 3 columns, got shape {rows.shape}"]
    t1, t2 = np.repeat(grid, n), np.tile(grid, n)
    amp4 = 0.25  # |alpha beta gamma delta| with every amplitude 1/sqrt(2)
    norm = 0.25 * (t2 ** 2 + t1 ** 2 + t1 ** 2 * (1 - t2 ** 2) + t2 ** 2 * (1 - t1 ** 2))
    expected = 2.0 * amp4 * t1 * t2 / norm
    for name, got, want in (("t1", rows[:, 0], t1), ("t2", rows[:, 1], t2),
                            ("concurrence", rows[:, 2], expected)):
        bad = np.flatnonzero(~(np.abs(got - want) <= SURFACE_TOL))
        if bad.size:
            i = int(bad[0])
            problems.append(
                f"{bad.size} rows with {name} off by more than {SURFACE_TOL:g}; "
                f"first at data row {i}: {got[i]!r} vs {want[i]!r}"
            )
    return problems


def _first_line(path) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readline().rstrip("\n")
    except OSError:
        return None


def _data_rows(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def expected_files(experiment: str, seed: int) -> dict[str, str]:
    """CSV name -> documented header for one ``swapsim run`` of the experiment."""
    files = {f"{experiment}.csv": CSV_HEADERS[experiment]}
    if experiment == "theta-fringes":
        for tag in FRINGE_TAGS:
            files[f"counts_{tag}_seed{seed}.csv"] = COUNTS_HEADER
    return files


def check_run_outputs(out_dir, experiment: str, seed: int, dump_path) -> list[str]:
    """Every expected CSV, the sidecar and the state dump, each well formed."""
    out_dir = Path(out_dir)
    problems = []
    files = expected_files(experiment, seed)
    for name, header in files.items():
        got = _first_line(out_dir / name)
        if got is None:
            problems.append(f"{experiment}: missing {name}")
        elif got != header:
            problems.append(f"{experiment}: {name} has header {got!r}")
    meta_path = out_dir / f"{experiment}.meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"{experiment}: unreadable sidecar: {exc}"]
    missing = [k for k in META_KEYS if k not in meta]
    if missing:
        problems.append(f"{experiment}: sidecar lacks {missing}")
    elif meta["experiment"] != experiment or sorted(meta["files"]) != sorted(files):
        problems.append(f"{experiment}: sidecar names {meta['experiment']!r}, {meta['files']}")
    elif not problems and meta["rows"] != _data_rows(out_dir / f"{experiment}.csv"):
        problems.append(f"{experiment}: sidecar rows {meta['rows']} differ from the CSV")
    try:
        state = json.loads(Path(dump_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"{experiment}: unreadable state dump: {exc}"]
    entries = state.get("entries")
    if (state.get("kind") != "density_matrix" or state.get("labels") != ["A", "B"]
            or not isinstance(entries, list) or len(entries) != 4
            or any(len(row) != 4 for row in entries)):
        problems.append(f"{experiment}: state dump is not a 4x4 density matrix on (A, B)")
    return problems


def _experiment_of(cfg_path: Path) -> str:
    for line in cfg_path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "experiment":
            return value.split("#")[0].strip()
    raise ValueError(f"{cfg_path} names no experiment")


class Workload:
    """Inputs of one workload, generated from the seed under ``work_dir``."""

    name = ""
    item = ""

    def __init__(self, root: Path, work_dir: Path, seed: int):
        self.work_dir, self.seed = work_dir, seed
        work_dir.mkdir(parents=True, exist_ok=True)

    def prepare(self):
        """Remove the previous pass's outputs, so that each check sees fresh ones."""
        out = self.work_dir / "out"
        if out.exists():
            shutil.rmtree(out)
        out.mkdir()

    def out_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.work_dir / "out").rglob("*")
                   if p.is_file())


class OracleCheck(Workload):
    name = "oracle-check"
    item = "draws"
    items_per_pass = ORACLE_DRAWS

    def argvs(self, i):
        return [["check", "--draws", str(ORACLE_DRAWS), "--seed", str(self.seed + i)]]

    def check(self, i, codes, stdout):
        return check_oracle(codes, stdout), {}

    def input_size(self):
        return {"draws_per_pass": ORACLE_DRAWS, "pass_seed": "seed + pass"}


class SurfaceGrid(Workload):
    name = "surface-grid"
    item = "grid points"
    items_per_pass = SURFACE_SIDE * SURFACE_SIDE

    def __init__(self, root, work_dir, seed):
        super().__init__(root, work_dir, seed)
        lo, hi = SURFACE_RANGE
        self.cfg = work_dir / "surface.cfg"
        self.cfg.write_text(
            "experiment = concurrence-surface\n"
            f"seed = {seed}\n"
            f"t1 = linspace({lo}, {hi}, {SURFACE_SIDE})\n"
            f"t2 = linspace({lo}, {hi}, {SURFACE_SIDE})\n",
            encoding="utf-8",
        )
        self._grid = None

    def argvs(self, i):
        return [["run", str(self.cfg), "--out", str(self.work_dir / "out")]]

    def check(self, i, codes, stdout):
        if self._grid is None:
            self._grid = surface_grid()
        csv_path = self.work_dir / "out" / "concurrence-surface.csv"
        problems = check_surface(codes, csv_path, self._grid)
        return problems, ({} if problems else {csv_path.name: sha256(csv_path)})

    def input_size(self):
        return {"grid": f"{SURFACE_SIDE}x{SURFACE_SIDE}",
                "points_per_pass": self.items_per_pass}


class BundledConfigs(Workload):
    name = "bundled-configs"
    item = "config runs"

    def __init__(self, root, work_dir, seed):
        super().__init__(root, work_dir, seed)
        cfgs = sorted((root / "scripts" / "configs").glob("*.cfg"))
        self.cfgs = [(p, _experiment_of(p)) for p in cfgs if p.name != "oracle_check.cfg"]
        if sorted(e for _, e in self.cfgs) != sorted(CSV_HEADERS):
            raise ValueError(f"bundled configs cover {[e for _, e in self.cfgs]}, "
                             f"expected one each of {sorted(CSV_HEADERS)}")
        self.items_per_pass = len(self.cfgs)

    def _paths(self, cfg):
        out = self.work_dir / "out"
        return out / cfg.stem, out / f"{cfg.stem}.state.json"

    def argvs(self, i):
        argvs = []
        for cfg, _ in self.cfgs:
            out, dump = self._paths(cfg)
            argvs.append(["run", str(cfg), "--out", str(out), "--seed", str(self.seed + i),
                          "--dump-state", str(dump)])
        return argvs

    def check(self, i, codes, stdout):
        problems = _exit_problems(codes)
        hashes = {}
        for cfg, experiment in self.cfgs:
            out, dump = self._paths(cfg)
            found = check_run_outputs(out, experiment, self.seed + i, dump)
            problems += found
            if not found:
                for name in expected_files(experiment, self.seed + i):
                    hashes[f"{cfg.stem}/{name}"] = sha256(out / name)
        return problems, hashes

    def input_size(self):
        return {"configs": [p.name for p, _ in self.cfgs],
                "runs_per_pass": self.items_per_pass, "pass_seed": "seed + pass"}


WORKLOADS = {w.name: w for w in (OracleCheck, SurfaceGrid, BundledConfigs)}

# traced functions each workload must call on every pass
EXPECTED_SPANS = {
    "oracle-check": (
        "cli.main", "recipes.run_oracle_draws", "protocol.random_input_pair",
        "protocol.swap", "protocol.build_inputs", "protocol.propagate",
        "protocol.bsm", "protocol.closed_form_rho", "protocol.success_probability",
        "loss.dilate", "states.tensor", "states.partial_trace", "states.project",
        "metrics.concurrence_wootters", "metrics.concurrence_closed_form",
    ),
    "surface-grid": (
        "cli.main", "config.validate_config", "recipes.run",
        "metrics.concurrence_closed_form", "protocol.success_probability",
    ),
    "bundled-configs": (
        "cli.main", "config.validate_config", "recipes.run", "protocol.swap",
        "protocol.closed_form_rho", "protocol.optimal_inputs",
        "metrics.fringe_scan", "metrics.visibility_analytic", "metrics.bell_fidelity",
        "metrics.concurrence_wootters", "experiment.spdc_input",
        "experiment.synth_counts", "experiment.estimate_visibility",
        "experiment.normalized_success",
    ),
}
