"""Named sweep recipes and the batch runner.

Each recipe evaluates a parameter grid with the pure library functions
and emits one CSV (documented column contract below) plus a JSON sidecar
with the full configuration, library version, and wall time. Rows are
emitted in grid order, so a given configuration always writes a
byte-identical CSV.

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

import csv
import dataclasses
import json
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
    """One recipe's output: CSV header and rows, summary, and extra files.

    ``rep_state`` builds the representative heralded state for
    ``--dump-state`` only when asked; ``extra`` pairs each extra file name
    with the SynthCounts written there.
    """

    header: list
    rows: list
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


def _rep_state(pair, t1, t2):
    """Deferred X+ heralded state at one grid point, for ``--dump-state``."""
    return lambda: swap(pair, t1, t2, BsmSetting.x(+1)).rho_ab


# ---------------------------------------------------------------- recipes

def _run_surface(cfg: SweepConfig):
    g1, g2 = _grid(cfg, "t1"), _grid(cfg, "t2")
    conc = concurrence_closed_form(MAX_ENTANGLED_PAIR, np.array(g1)[:, None], np.array(g2))
    rows = [(a, b, c) for a, row in zip(g1, conc.tolist()) for b, c in zip(g2, row)]
    summary = {"points": len(rows), "max_concurrence": float(conc.max())}
    return RecipeResult(["t1", "t2", "concurrence"], rows, summary,
                        _rep_state(MAX_ENTANGLED_PAIR, g1[0], g2[0]))


def _run_slices(cfg: SweepConfig):
    g1, g2 = _grid(cfg, "t1"), _grid(cfg, "t2")
    rows = []
    for t1 in g1:
        for t2 in g2:
            c = concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, t2)
            rho, norm = closed_form_rho(MAX_ENTANGLED_PAIR, t1, t2, sign=+1)
            rows.append((t1, t2, c, visibility_analytic(rho).v, norm))
    header = ["t1", "t2", "concurrence", "visibility", "p_success"]
    summary = {"points": len(rows), "t1_values": list(g1)}
    return RecipeResult(header, rows, summary,
                        _rep_state(MAX_ENTANGLED_PAIR, g1[0], g2[0]))


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
    rows, fits, extra = [], {}, []
    for (tag, setting), child in zip(_FRINGE_SETTINGS, children):
        model = CountModel(mean, int(child.generate_state(1, np.uint64)[0]))
        counts = synth_counts(pair, t1, t2, setting, thetas, model)
        scan = counts.scan
        for i, theta in enumerate(scan.thetas):
            rows.append((tag, theta, "+", scan.p_plus[i], mean * scan.p_plus[i],
                         int(counts.counts_plus[i])))
            rows.append((tag, theta, "-", scan.p_minus[i], mean * scan.p_minus[i],
                         int(counts.counts_minus[i])))
        fit = estimate_visibility(thetas, counts.counts_plus)
        fits[tag] = {"v": fit.v, "sigma": fit.sigma}
        extra.append((f"counts_{tag}_seed{cfg.seed}.csv", counts))
    header = ["setting", "theta_rad", "outcome_sign", "probability",
              "expected_counts", "counts"]
    return RecipeResult(header, rows, {"fitted_visibility": fits},
                        _rep_state(pair, t1, t2), extra=tuple(extra))


def _run_scaling(cfg: SweepConfig):
    grid = _grid(cfg, "t")
    xi = _grid(cfg, "xi")[0]
    pair = spdc_input(SpdcSource(xi), SpdcSource(xi))
    roots = np.sqrt(grid)
    p = success_probability(pair, roots, roots)
    columns = [grid, roots.tolist(), p.tolist()]
    if cfg.normalize:
        columns.append(normalized_success(pair, roots, roots).tolist())
    rows = list(zip(*columns))
    header = ["t", "t1", "p_success"] + (["p_normalized"] if cfg.normalize else [])
    if not np.all(p > 0.0):
        raise ValueError("degenerate inputs: heralding probability is zero")
    logs_t = np.log(grid)
    logs_p = np.log(p)
    # a slope needs two distinct transmissions; one point has none
    slope = float(np.polyfit(logs_t, logs_p, 1)[0]) if np.ptp(logs_t) > 0.0 else None
    summary = {
        "slope_loglog": slope,
        "reference_slopes": {"swap": 1.0, "direct_transmission": 2.0},
    }
    root = float(roots[0])
    return RecipeResult(header, rows, summary, _rep_state(pair, root, root))


def _run_imbalance(cfg: SweepConfig):
    t1 = _grid(cfg, "t1")[0]
    g2 = _grid(cfg, "t2")
    xi = _grid(cfg, "xi")[0]
    epsilon = _grid(cfg, "epsilon")[0]
    equal = spdc_input(SpdcSource(xi), SpdcSource(xi))
    rows = []
    for t2 in g2:
        for strategy in ("equal", "optimal"):
            pair = equal if strategy == "equal" else optimal_inputs(t1, t2, epsilon)
            rho, norm = closed_form_rho(pair, t1, t2, sign=+1)
            row = (t1, t2, strategy, visibility_analytic(rho).v, concurrence_wootters(rho),
                   bell_fidelity(rho, sign=+1, phase=0.0), norm)
            if cfg.normalize:
                row += (normalized_success(pair, t1, t2),)
            rows.append(row)
    header = ["t1", "t2", "strategy", "visibility", "concurrence",
              "bell_fidelity", "p_success"]
    if cfg.normalize:
        header.append("p_normalized")
    summary = {
        "t1": t1,
        "equal_visibility_shape": "2*t1*t2/(t1^2+t2^2)",
        "optimal_success_shape": "2*t1^2*t2^2/(t1^2+t2^2)",
    }
    pair = optimal_inputs(t1, g2[0], epsilon)
    return RecipeResult(header, rows, summary, _rep_state(pair, t1, g2[0]))


def run_oracle_draws(draws: int, seed: int):
    """Randomized closed-form vs brute-force cross-check.

    Returns (rows, summary, ok); ok is False as soon as any draw exceeds
    the fixed tolerances (1e-12 on entries and heralding probability,
    1e-10 on concurrence).
    """
    rng = np.random.default_rng(seed)
    rows = []
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
        rows.append((i, t1, t2, sign, dev_rho, dev_norm, dev_conc))
    max_rho = max(r[4] for r in rows)
    max_norm = max(r[5] for r in rows)
    max_conc = max(r[6] for r in rows)
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
    return rows, summary, ok


def _run_oracle(cfg: SweepConfig):
    rows, summary, ok = run_oracle_draws(cfg.draws, cfg.seed)
    header = ["draw", "t1", "t2", "sign", "max_dev_rho", "dev_norm",
              "dev_concurrence"]
    # the first draw's inputs, drawn as run_oracle_draws draws them
    rng = np.random.default_rng(cfg.seed)
    pair = random_input_pair(rng)
    t1, t2 = rng.uniform(0.05, 1.0, size=2)
    return RecipeResult(header, rows, summary, _rep_state(pair, float(t1), float(t2)), ok)


def _positive(key: str):
    return (key, lambda x: x > 0.0, f"{key} > 0")


_NONZERO_XI = ("xi", lambda x: x != 0.0, "xi != 0")

RECIPES = {
    "concurrence-surface": Recipe(
        "concurrence of the heralded state over a (t1, t2) grid with "
        "maximally entangled inputs",
        _run_surface,
        dict.fromkeys(("t1", "t2"), tuple(np.linspace(0.05, 1.0, 20))),
        rules=(_positive("t1"),),
    ),
    "concurrence-slices": Recipe(
        "concurrence, visibility and heralding probability vs t2 for "
        "selected t1 values, maximally entangled inputs",
        _run_slices,
        {"t1": (0.3, 0.6, 0.8, 1.0), "t2": tuple(np.linspace(0.0, 1.0, 101))},
        rules=(_positive("t1"),),
    ),
    "theta-fringes": Recipe(
        "verification-phase fringes for every middle-station setting, "
        "with synthetic Poisson coincidence counts",
        _run_fringes,
        {"t1": (1.0,), "t2": (1.0,),
         "theta": tuple(np.linspace(0.0, TWO_PI, 16, endpoint=False)),
         "xi": (0.1,), "ratio": (0.5,)},
        single=frozenset({"t1", "t2", "xi", "ratio"}),
        rules=(_positive("t1"), _positive("t2"), _NONZERO_XI,
               ("ratio", lambda x: 0.0 < x < 1.0, "0 < ratio < 1"), _positive("counts")),
    ),
    "scaling-balanced": Recipe(
        "heralding probability vs total transmission t for balanced "
        "channels t1 = t2 = sqrt(t); summary reports the log-log slope",
        _run_scaling,
        {"t": tuple(np.geomspace(1e-3, 1.0, 25)), "xi": (0.05,)},
        single=frozenset({"xi"}),
        rules=(_positive("t"), _NONZERO_XI),
    ),
    "imbalance-restore": Recipe(
        "visibility/fidelity degradation from unbalanced losses and its "
        "restoration by loss-matched input amplitudes",
        _run_imbalance,
        {"t1": (1.0,), "t2": tuple(np.linspace(0.1, 1.0, 10)),
         "xi": (0.05,), "epsilon": (0.01,)},
        single=frozenset({"t1", "xi", "epsilon"}),
        rules=(_positive("t1"), _positive("t2"), _NONZERO_XI),
    ),
    "oracle-check": Recipe(
        "randomized cross-validation of the closed-form heralded state "
        "against the brute-force dilation pipeline",
        _run_oracle,
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


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def run(cfg: SweepConfig, out_dir=None, dump_state=None) -> RunReport:
    """Execute one recipe: write its CSV, sidecar, and any extra files.

    Output is deterministic for a given configuration: identical configs
    produce byte-identical CSVs.
    """
    started = time.monotonic()
    out = Path(out_dir) if out_dir is not None else Path(cfg.out or ".")
    out.mkdir(parents=True, exist_ok=True)

    result = RECIPES[cfg.experiment].runner(cfg)
    csv_path = out / f"{cfg.experiment}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.header)
        for row in result.rows:
            writer.writerow([_fmt(x) for x in row])

    extra_files = []
    for filename, counts in result.extra:
        path = out / filename
        counts.write_csv(path)
        extra_files.append(path)

    if dump_state is not None:
        state = result.rep_state()
        with open(dump_state, "w", encoding="utf-8") as fh:
            json.dump(state.to_json_dict(), fh, indent=1)
            fh.write("\n")

    meta_path = out / f"{cfg.experiment}.meta.json"
    meta = {
        "experiment": cfg.experiment,
        "config": dataclasses.asdict(cfg),
        "library_version": __version__,
        "wall_time_s": time.monotonic() - started,
        "rows": len(result.rows),
        "summary": result.summary,
        "files": [csv_path.name] + [p.name for p in extra_files],
    }
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, default=str)
        fh.write("\n")

    return RunReport(cfg.experiment, csv_path, meta_path, tuple(extra_files),
                     result.summary, result.ok)
