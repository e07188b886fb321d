"""Named sweep recipes and the batch runner.

Each recipe evaluates a parameter grid with the pure library functions
and returns columns (header name -> Python values, in grid order) that one
writer streams out as CSV, each float as its shortest repr, so a given
configuration always writes a byte-identical CSV; no field needs quoting.
A JSON sidecar holds the full configuration, library version, and wall
time.

Column contracts:

  concurrence-surface   t1, t2, concurrence
  concurrence-slices    t1, t2, concurrence, visibility, p_success
  theta-fringes         setting, theta_rad, outcome_sign, probability,
                        expected_counts, counts
                        (plus one raw counts file per setting:
                        counts_<tag>_seed<seed>.csv)
  scaling-balanced      t, t1, p_success [, p_normalized]
  imbalance-restore     t1, t2, strategy, visibility, concurrence,
                        bell_fidelity, p_success [, p_normalized]
  oracle-check          draw, t1, t2, sign, max_dev_rho, dev_norm,
                        dev_concurrence

Success probabilities are absolute heralding probabilities summed over
both entangling outcomes; ``p_normalized`` divides by the same inputs on
lossless channels. All transmittivities are AMPLITUDE transmittivities
(power transmission is t^2).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__
from .experiment import (
    CountModel,
    estimate_visibility,
    normalized_success,
    pump_split,
    spdc_input,
    synth_counts,
    SpdcSource,
)
from .metrics import (
    TWO_PI,
    bell_fidelity,
    concurrence_closed_form,
    concurrence_wootters,
    visibility_analytic,
)
from .protocol import (
    MAX_ENTANGLED_PAIR,
    WEIGHT_EPS,
    BsmSetting,
    closed_form_rho,
    optimal_inputs,
    random_input_pair,
    success_probability,
    swap,
)
from .states import DensityMatrix

if TYPE_CHECKING:
    from .config import SweepConfig

__all__ = ["Recipe", "RecipeResult", "RunReport", "RECIPES", "run", "run_oracle_draws",
           "describe_recipes"]

# oracle-check tolerances
DEV_RHO_TOL = 1e-12
DEV_NORM_TOL = 1e-12
DEV_CONCURRENCE_TOL = 1e-10


@dataclass(frozen=True)
class RecipeResult:
    """One recipe's output: CSV columns, summary, and extra files.

    ``columns`` maps each header name, in order, to its column of Python
    values; ``rep_state`` builds the representative heralded state for
    ``--dump-state`` only when asked; ``extra`` holds one
    ``(filename, columns)`` pair per extra CSV file.
    """

    columns: dict
    summary: dict
    rep_state: Callable[[], DensityMatrix]
    ok: bool = True
    extra: tuple = ()


@dataclass(frozen=True)
class Recipe:
    """One named experiment: its runner, defaults and config rules.

    ``grids`` holds the default of every grid key the recipe reads; a
    config that sets any other grid key is rejected. The keys in ``single``
    take one value, and each ``(key, holds, text)`` rule must hold for
    every value of ``key`` ("this experiment needs <text>").
    """

    description: str
    runner: Callable[[SweepConfig], RecipeResult]
    grids: dict
    single: frozenset = frozenset()
    rules: tuple = ()


@dataclass(frozen=True)
class RunReport:
    experiment: str
    csv_path: Path
    meta_path: Path
    extra_files: tuple[Path, ...]
    summary: dict
    ok: bool


def _grid(cfg: SweepConfig, key: str) -> tuple[float, ...]:
    value = getattr(cfg, key)
    if value is None:
        value = RECIPES[cfg.experiment].grids[key]
    return value


def _append(columns, **row):
    """Append one grid point's values, creating the columns on first use."""
    for name, value in row.items():
        columns.setdefault(name, []).append(value)


def _rep_state(pair, t1, t2):
    """Deferred X+ heralded state at one grid point, for ``--dump-state``."""
    return lambda: swap(pair, t1, t2, BsmSetting.x(+1)).rho_ab


# ---------------------------------------------------------------- recipes

def _run_surface(cfg: SweepConfig):
    g1, g2 = _grid(cfg, "t1"), _grid(cfg, "t2")
    conc = concurrence_closed_form(MAX_ENTANGLED_PAIR, np.array(g1)[:, None], np.array(g2))
    columns = {"t1": [a for a in g1 for _ in g2], "t2": list(g2) * len(g1),
               "concurrence": conc.ravel().tolist()}
    summary = {"points": conc.size, "max_concurrence": float(conc.max())}
    return RecipeResult(columns, summary, _rep_state(MAX_ENTANGLED_PAIR, g1[0], g2[0]))


def _run_slices(cfg: SweepConfig):
    g1, g2 = _grid(cfg, "t1"), _grid(cfg, "t2")
    columns = {}
    for t1 in g1:
        for t2 in g2:
            c = concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, t2)
            rho, norm = closed_form_rho(MAX_ENTANGLED_PAIR, t1, t2, sign=+1)
            _append(columns, t1=t1, t2=t2, concurrence=c,
                    visibility=visibility_analytic(rho).v, p_success=norm)
    summary = {"points": len(g1) * len(g2), "t1_values": list(g1)}
    return RecipeResult(columns, summary, _rep_state(MAX_ENTANGLED_PAIR, g1[0], g2[0]))


_FRINGE_SETTINGS = (
    ("Xp", BsmSetting.x(+1)),
    ("Xm", BsmSetting.x(-1)),
    ("Yp", BsmSetting.y(+1)),
    ("Ym", BsmSetting.y(-1)),
    ("Zp", BsmSetting.z("01")),
    ("Zm", BsmSetting.z("10")),
)


def _run_fringes(cfg: SweepConfig):
    t1, t2 = _grid(cfg, "t1")[0], _grid(cfg, "t2")[0]
    thetas = _grid(cfg, "theta")
    xi = _grid(cfg, "xi")[0]
    ratio = _grid(cfg, "ratio")[0]
    mean = cfg.counts
    # xi is the total pump amplitude scale; the split divides it between sources
    pair = spdc_input(*pump_split(ratio, xi))
    children = np.random.SeedSequence(cfg.seed).spawn(len(_FRINGE_SETTINGS))
    columns, fits, extra = {}, {}, []
    for (tag, setting), child in zip(_FRINGE_SETTINGS, children):
        model = CountModel(mean, int(child.generate_state(1, np.uint64)[0]))
        counts = synth_counts(pair, t1, t2, setting, thetas, model)
        scan = counts.scan
        # rows run theta by theta, the "+" outcome before the "-" one
        prob = np.stack((scan.p_plus, scan.p_minus), axis=1).ravel()
        block = {"theta_rad": np.repeat(scan.thetas, 2).tolist(),
                 "outcome_sign": ["+", "-"] * len(scan.thetas),
                 "counts": np.stack((counts.counts_plus, counts.counts_minus), 1).ravel().tolist()}
        part = {"setting": [tag] * prob.size, "theta_rad": block["theta_rad"],
                "outcome_sign": block["outcome_sign"], "probability": prob.tolist(),
                "expected_counts": (mean * prob).tolist(), "counts": block["counts"]}
        for name, values in part.items():
            columns.setdefault(name, []).extend(values)
        fit = estimate_visibility(thetas, counts.counts_plus)
        fits[tag] = {"v": fit.v, "sigma": fit.sigma}
        extra.append((f"counts_{tag}_seed{cfg.seed}.csv", block))
    return RecipeResult(columns, {"fitted_visibility": fits},
                        _rep_state(pair, t1, t2), extra=tuple(extra))


def _run_scaling(cfg: SweepConfig):
    grid = _grid(cfg, "t")
    xi = _grid(cfg, "xi")[0]
    pair = spdc_input(SpdcSource(xi), SpdcSource(xi))
    roots = np.sqrt(grid)
    p = success_probability(pair, roots, roots)
    if np.any(p < 2.0 * WEIGHT_EPS):
        raise ValueError("degenerate inputs: heralding probability is zero")
    columns = {"t": list(grid), "t1": roots.tolist(), "p_success": p.tolist()}
    if cfg.normalize:
        columns["p_normalized"] = normalized_success(pair, roots, roots).tolist()
    logs_t = np.log(grid)
    # a slope needs two transmissions that polyfit can tell apart
    slope = None
    if np.ptp(logs_t) > 0.0:
        coef, _, rank, _, _ = np.polyfit(logs_t, np.log(p), 1, full=True)
        slope = float(coef[0]) if rank == 2 else None
    summary = {
        "slope_loglog": slope,
        "reference_slopes": {"swap": 1.0, "direct_transmission": 2.0},
    }
    root = float(roots[0])
    return RecipeResult(columns, summary, _rep_state(pair, root, root))


def _run_imbalance(cfg: SweepConfig):
    t1 = _grid(cfg, "t1")[0]
    g2 = _grid(cfg, "t2")
    xi = _grid(cfg, "xi")[0]
    epsilon = _grid(cfg, "epsilon")[0]
    equal = spdc_input(SpdcSource(xi), SpdcSource(xi))
    columns = {}
    for t2 in g2:
        for strategy in ("equal", "optimal"):
            pair = equal if strategy == "equal" else optimal_inputs(t1, t2, epsilon)
            rho, norm = closed_form_rho(pair, t1, t2, sign=+1)
            _append(columns, t1=t1, t2=t2, strategy=strategy,
                    visibility=visibility_analytic(rho).v, concurrence=concurrence_wootters(rho),
                    bell_fidelity=bell_fidelity(rho, sign=+1, phase=0.0), p_success=norm)
            if cfg.normalize:
                _append(columns, p_normalized=normalized_success(pair, t1, t2))
    summary = {
        "t1": t1,
        "equal_visibility_shape": "2*t1*t2/(t1^2+t2^2)",
        "optimal_success_shape": "2*t1^2*t2^2/(t1^2+t2^2)",
    }
    pair = optimal_inputs(t1, g2[0], epsilon)
    return RecipeResult(columns, summary, _rep_state(pair, t1, g2[0]))


def run_oracle_draws(draws: int, seed: int) -> RecipeResult:
    """Randomized closed-form vs brute-force cross-check.

    ``ok`` is False as soon as any draw exceeds the fixed tolerances
    (1e-12 on entries and heralding probability, 1e-10 on concurrence);
    ``rep_state`` is the first draw's X+ state.
    """
    rng = np.random.default_rng(seed)
    columns = {}
    for i in range(draws):
        pair = random_input_pair(rng)
        t1, t2 = rng.uniform(0.05, 1.0, size=2).tolist()
        sign = +1 if rng.integers(0, 2) == 0 else -1
        brute = swap(pair, t1, t2, BsmSetting.x(sign))
        other = swap(pair, t1, t2, BsmSetting.x(-sign))
        rho_cf, norm = closed_form_rho(pair, t1, t2, sign)
        dev_rho = float(np.max(np.abs(brute.rho_ab.entries - rho_cf)))
        dev_norm = abs(brute.p_success + other.p_success - norm)
        dev_conc = abs(
            concurrence_wootters(brute.rho_ab) - concurrence_closed_form(pair, t1, t2)
        )
        _append(columns, draw=i, t1=t1, t2=t2, sign=sign, max_dev_rho=dev_rho,
                dev_norm=dev_norm, dev_concurrence=dev_conc)
        if i == 0:
            rep_state = _rep_state(pair, t1, t2)
    max_rho = max(columns["max_dev_rho"])
    max_norm = max(columns["dev_norm"])
    max_conc = max(columns["dev_concurrence"])
    ok = (
        max_rho <= DEV_RHO_TOL
        and max_norm <= DEV_NORM_TOL
        and max_conc <= DEV_CONCURRENCE_TOL
    )
    summary = {
        "draws": draws,
        "max_dev_rho": max_rho,
        "max_dev_norm": max_norm,
        "max_dev_concurrence": max_conc,
        "tolerances": {
            "rho": DEV_RHO_TOL,
            "norm": DEV_NORM_TOL,
            "concurrence": DEV_CONCURRENCE_TOL,
        },
        "passed": ok,
    }
    return RecipeResult(columns, summary, rep_state, ok)


def _positive(key: str):
    return (key, lambda x: x > 0.0, f"{key} > 0")


_NONZERO_XI = ("xi", lambda x: x != 0.0, "xi != 0")

RECIPES = {
    "concurrence-surface": Recipe(
        "concurrence of the heralded state over a (t1, t2) grid with "
        "maximally entangled inputs",
        _run_surface,
        dict.fromkeys(("t1", "t2"), tuple(np.linspace(0.05, 1.0, 20).tolist())),
        rules=(_positive("t1"),),
    ),
    "concurrence-slices": Recipe(
        "concurrence, visibility and heralding probability vs t2 for "
        "selected t1 values, maximally entangled inputs",
        _run_slices,
        {"t1": (0.3, 0.6, 0.8, 1.0), "t2": tuple(np.linspace(0.0, 1.0, 101).tolist())},
        rules=(_positive("t1"),),
    ),
    "theta-fringes": Recipe(
        "verification-phase fringes for every middle-station setting, "
        "with synthetic Poisson coincidence counts",
        _run_fringes,
        {"t1": (1.0,), "t2": (1.0,),
         "theta": tuple(np.linspace(0.0, TWO_PI, 16, endpoint=False).tolist()),
         "xi": (0.1,), "ratio": (0.5,)},
        single=frozenset({"t1", "t2", "xi", "ratio"}),
        rules=(_positive("t1"), _positive("t2"), _NONZERO_XI,
               ("ratio", lambda x: 0.0 < x < 1.0, "0 < ratio < 1"), _positive("counts")),
    ),
    "scaling-balanced": Recipe(
        "heralding probability vs total transmission t for balanced "
        "channels t1 = t2 = sqrt(t); summary reports the log-log slope",
        _run_scaling,
        {"t": tuple(np.geomspace(1e-3, 1.0, 25).tolist()), "xi": (0.05,)},
        single=frozenset({"xi"}),
        rules=(_positive("t"), _NONZERO_XI),
    ),
    "imbalance-restore": Recipe(
        "visibility/fidelity degradation from unbalanced losses and its "
        "restoration by loss-matched input amplitudes",
        _run_imbalance,
        {"t1": (1.0,), "t2": tuple(np.linspace(0.1, 1.0, 10).tolist()),
         "xi": (0.05,), "epsilon": (0.01,)},
        single=frozenset({"t1", "xi", "epsilon"}),
        rules=(_positive("t1"), _positive("t2"), _NONZERO_XI),
    ),
    "oracle-check": Recipe(
        "randomized cross-validation of the closed-form heralded state "
        "against the brute-force dilation pipeline",
        lambda cfg: run_oracle_draws(cfg.draws, cfg.seed),
        {},
    ),
}


def describe_recipes() -> str:
    lines = []
    for name, recipe in RECIPES.items():
        lines.append(name)
        lines.append(f"  {recipe.description}")
        if recipe.grids:
            keys = ", ".join(f"{k}[{len(v)}]" for k, v in recipe.grids.items())
            lines.append(f"  grid keys (defaults): {keys}")
        lines.append("")
    return "\n".join(lines)


def _write_csv(fh, columns):
    """Stream the header, then one line per row (``str(float)`` is its repr)."""
    fh.write(",".join(columns) + "\n")
    fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*columns.values()))


def run(cfg: SweepConfig, out_dir=None, dump_state=None) -> RunReport:
    """Execute one recipe: write its CSV, sidecar, and any extra files.

    Output is deterministic for a given configuration: identical configs
    produce byte-identical CSVs. A run writes all of its files or none:
    each goes to a temporary name beside its destination and is renamed
    into place only after every write, the state dump included, has
    succeeded. A failed run also removes the directories it made, and a
    ``dump_state`` path that names one of the run's own outputs is a
    ``ValueError`` raised before anything is written.
    """
    started = time.monotonic()
    out = Path(out_dir) if out_dir is not None else Path(cfg.out or ".")
    result = RECIPES[cfg.experiment].runner(cfg)
    csv_path = out / f"{cfg.experiment}.csv"
    meta_path = out / f"{cfg.experiment}.meta.json"
    extra_files = [out / filename for filename, _ in result.extra]
    if dump_state is not None:
        outputs = {p.resolve(): p for p in (csv_path, meta_path, *extra_files)}
        clash = outputs.get(Path(dump_state).resolve())
        if clash is not None:
            raise ValueError(f"--dump-state {dump_state} would overwrite the run's output {clash}")
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    staged = []  # (temporary path, destination)

    def stage(path):
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            fh = open(tmp, "w", newline="", encoding="utf-8")
        except OSError as exc:
            # name the file the caller asked for, not its temporary twin
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        staged.append((tmp, path))
        return fh

    try:
        out.mkdir(parents=True, exist_ok=True)
        with stage(csv_path) as fh:
            _write_csv(fh, result.columns)
        for path, (_, columns) in zip(extra_files, result.extra):
            with stage(path) as fh:
                _write_csv(fh, columns)

        if dump_state is not None:
            state = result.rep_state()
            with stage(dump_state) as fh:
                json.dump(state.to_json_dict(), fh, indent=1)
                fh.write("\n")

        meta = {
            "experiment": cfg.experiment,
            "config": dataclasses.asdict(cfg),
            "library_version": __version__,
            "wall_time_s": time.monotonic() - started,
            "rows": len(next(iter(result.columns.values()))),
            "summary": result.summary,
            "files": [csv_path.name] + [p.name for p in extra_files],
        }
        with stage(meta_path) as fh:
            json.dump(meta, fh, indent=1, default=str)
            fh.write("\n")
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise

    return RunReport(cfg.experiment, csv_path, meta_path, tuple(extra_files),
                     result.summary, result.ok)
