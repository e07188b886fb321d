"""Plain-text sweep configuration: parsing, validation, serialization.

The format is one ``key = value`` pair per line; blank lines and lines
starting with ``#`` are ignored. Grid-valued keys accept a comma list
(``t1 = 0.3, 0.6, 1.0``), a single number, ``linspace(a, b, n)``, or
``logspace(a, b, n)`` (geometric spacing between the two VALUES a and
b). Unknown keys are rejected and every violation is reported at once.

``validate_config(to_text(cfg)) == cfg`` holds for any valid config.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .metrics import TWO_PI
from .recipes import RECIPES

__all__ = [
    "ConfigError",
    "SweepConfig",
    "EXPERIMENTS",
    "GRID_KEYS",
    "validate_config",
    "to_text",
]

EXPERIMENTS = tuple(RECIPES)

# the grid keys in document order; inclusive bounds unless noted, epsilon
# excludes its lower bound
_DOMAINS = {
    "t1": (0.0, 1.0),
    "t2": (0.0, 1.0),
    "t": (0.0, 1.0),
    "theta": (0.0, TWO_PI),  # upper bound exclusive
    "epsilon": (0.0, 0.5),
    "xi": (-0.5, 0.5),
    "ratio": (0.0, 1.0),
}
GRID_KEYS = tuple(_DOMAINS)


# scalar key -> (parse, holds, need): parse raises ValueError or returns
# None on malformed text, and the value must satisfy ``holds``
_SCALARS = {
    "seed": (int, lambda x: x >= 0, "a nonnegative integer"),
    "draws": (int, lambda x: x >= 1, "a positive integer"),
    "counts": (float, lambda x: np.isfinite(x) and x >= 0.0, "a nonnegative number"),
    "normalize": (lambda v: {"true": True, "false": False}.get(v.lower()),
                  lambda x: True, "true or false"),
}


class ConfigError(ValueError):
    """Invalid sweep configuration; maps to CLI exit code 2."""


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: the experiment to run plus its parameter grids.

    Grid fields left as None fall back to the experiment's documented
    defaults at run time.
    """

    experiment: str = "oracle-check"
    seed: int = 0
    normalize: bool = True
    out: str | None = None
    draws: int = 1000
    counts: float = 1e5
    t1: tuple[float, ...] | None = None
    t2: tuple[float, ...] | None = None
    t: tuple[float, ...] | None = None
    theta: tuple[float, ...] | None = None
    epsilon: tuple[float, ...] | None = None
    xi: tuple[float, ...] | None = None
    ratio: tuple[float, ...] | None = None


_GRID_FN_RE = re.compile(
    r"^(linspace|logspace)\(\s*([^,\s]+)\s*,\s*([^,\s]+)\s*,\s*(\d+)\s*\)$"
)


def _parse_grid(key: str, text: str, errors: list[str]) -> tuple[float, ...] | None:
    fn = _GRID_FN_RE.match(text)
    if fn:
        kind, lo_s, hi_s, n_s = fn.groups()
        try:
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError:
            errors.append(f"key {key!r}: malformed number in {text!r}")
            return None
        if n < 1:
            errors.append(f"key {key!r}: grid needs at least one point")
            return None
        if kind == "linspace":
            values = np.linspace(lo, hi, n)
        else:
            if lo <= 0.0 or hi <= 0.0:
                errors.append(f"key {key!r}: logspace endpoints must be positive")
                return None
            values = np.geomspace(lo, hi, n)
        return tuple(float(x) for x in values)
    values = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            errors.append(f"key {key!r}: empty entry in {text!r}")
            return None
        try:
            values.append(float(tok))
        except ValueError:
            errors.append(f"key {key!r}: malformed number {tok!r}")
            return None
    if not values:
        errors.append(f"key {key!r}: grid must be nonempty")
        return None
    return tuple(values)


def _check_domain(key: str, grid: tuple[float, ...], errors: list[str]):
    lo, hi = _DOMAINS[key]
    for x in grid:
        if not np.isfinite(x):
            errors.append(f"key {key!r}: value {x!r} is not finite")
        elif key == "theta" and not (lo <= x < hi):
            errors.append(f"key {key!r}: value {x!r} outside [0, 2*pi)")
        elif key == "epsilon" and not (lo < x <= hi):
            errors.append(f"key {key!r}: value {x!r} outside (0, 0.5]")
        elif key not in ("theta", "epsilon") and not (lo <= x <= hi):
            errors.append(f"key {key!r}: value {x!r} outside [{lo}, {hi}]")


def _check_recipe(cfg: SweepConfig, errors: list[str]):
    """Apply the experiment's record: used keys, single values, domain rules."""
    recipe = RECIPES[cfg.experiment]
    for key in GRID_KEYS + ("counts",):
        value = getattr(cfg, key)
        if value is None:
            continue
        if key in GRID_KEYS and key not in recipe.grids:
            errors.append(f"key {key!r} is not used by experiment {cfg.experiment!r}")
            continue
        values = value if isinstance(value, tuple) else (value,)
        if key in recipe.single and len(values) != 1:
            errors.append(f"key {key!r}: this experiment takes a single value")
        errors.extend(
            f"key {key!r}: this experiment needs {text}"
            for rule_key, holds, text in recipe.rules
            if rule_key == key and not all(holds(x) for x in values)
        )


def validate_config(raw: str) -> SweepConfig:
    """Parse and validate a configuration document.

    Raises ConfigError whose message lists every violation found. An
    empty document yields the defaults (oracle-check, seed 0).
    """
    errors: list[str] = []
    values: dict = {}
    seen: set[str] = set()
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        if key == "experiment":
            if val not in EXPERIMENTS:
                errors.append(
                    f"key 'experiment': unknown experiment {val!r} "
                    f"(choose from {', '.join(EXPERIMENTS)})"
                )
            else:
                values["experiment"] = val
        elif key in _SCALARS:
            parse, holds, need = _SCALARS[key]
            try:
                value = parse(val)
            except ValueError:
                value = None
            if value is not None and holds(value):
                values[key] = value
            else:
                errors.append(f"key {key!r}: need {need}, got {val!r}")
        elif key == "out":
            values["out"] = val
        elif key in GRID_KEYS:
            grid = _parse_grid(key, val, errors)
            if grid is not None:
                _check_domain(key, grid, errors)
                values[key] = grid
        else:
            errors.append(f"unknown key {key!r}")
    cfg = SweepConfig(**{k: v for k, v in values.items()})
    if not errors:
        _check_recipe(cfg, errors)
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def to_text(cfg: SweepConfig) -> str:
    """Canonical document form; parsing it reproduces ``cfg`` exactly."""
    lines = [
        f"experiment = {cfg.experiment}",
        f"seed = {cfg.seed}",
        f"normalize = {'true' if cfg.normalize else 'false'}",
        f"draws = {cfg.draws}",
        f"counts = {cfg.counts!r}",
    ]
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    for key in GRID_KEYS:
        grid = getattr(cfg, key)
        if grid is not None:
            lines.append(f"{key} = " + ", ".join(repr(x) for x in grid))
    return "\n".join(lines) + "\n"
