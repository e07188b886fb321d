"""Plain-text sweep configuration: parsing and validation.

The format is one ``key = value`` pair per line; blank lines and lines
starting with ``#`` are ignored. Grid-valued keys accept a comma list
(``t1 = 0.3, 0.6, 1.0``), a single number, ``linspace(a, b, n)``, or
``logspace(a, b, n)`` (geometric spacing between the two VALUES a and
b). Unknown keys are rejected and every violation is reported at once.
The package has no writer of this format: the inverse of
``validate_config``, ``to_text``, is a test oracle in ``tests/oracles.py``,
and the tests hold ``validate_config(to_text(cfg)) == cfg``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .experiment import MAX_MEAN_COUNTS, MAX_XI
from .metrics import TWO_PI
from .protocol import MAX_EPSILON
from .recipes import RECIPES

__all__ = ["ConfigError", "SweepConfig", "validate_config", "MAX_DRAWS", "too_many_draws"]

EXPERIMENTS = tuple(RECIPES)

# the longest column of 8-byte values numpy can describe: the oracle keeps
# one such entry per draw in each column, and numpy refuses a longer one
MAX_DRAWS = np.iinfo(np.intp).max // 8


def _closed(lo: float, hi: float):
    return (lambda x: lo <= x <= hi, f"[{lo}, {hi}]")


# grid key, in document order -> (holds, text): every finite value must
# satisfy ``holds`` ("outside <text>")
_DOMAINS = {
    "t1": _closed(0.0, 1.0),
    "t2": _closed(0.0, 1.0),
    "t": _closed(0.0, 1.0),
    "theta": (lambda x: 0.0 <= x < TWO_PI, "[0, 2*pi)"),
    "epsilon": (lambda x: 0.0 < x <= MAX_EPSILON, f"(0, {MAX_EPSILON}]"),
    "xi": _closed(-MAX_XI, MAX_XI),
    "ratio": _closed(0.0, 1.0),
}
GRID_KEYS = tuple(_DOMAINS)


# scalar key -> (parse, holds, need): parse raises ValueError or returns
# None on malformed text, and the value must satisfy ``holds``
_SCALARS = {
    "seed": (int, lambda x: x >= 0, "a nonnegative integer"),
    "draws": (int, lambda x: x >= 1, "a positive integer"),
    "counts": (float, lambda x: 0.0 <= x <= MAX_MEAN_COUNTS,
               f"a number in [0, {MAX_MEAN_COUNTS!r}]"),
    "normalize": (lambda v: {"true": True, "false": False}.get(v.lower()),
                  lambda x: True, "true or false"),
}


class ConfigError(ValueError):
    """Invalid sweep configuration; maps to CLI exit code 2."""


def too_many_draws(name: str, draws: int) -> str | None:
    """The error text for a ``draws`` past ``MAX_DRAWS``, given by ``name``; else None."""
    if draws > MAX_DRAWS:
        return f"{name}: {draws} draws do not fit in a numpy array (at most {MAX_DRAWS})"
    return None


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
        if kind == "logspace" and (lo <= 0.0 or hi <= 0.0):
            errors.append(f"key {key!r}: logspace endpoints must be positive")
            return None
        space = np.linspace if kind == "linspace" else np.geomspace
        # numpy refuses a count it cannot hold: ValueError past the largest
        # array size, IndexError near 2**63, MemoryError when the allocation fails
        try:
            return tuple(space(lo, hi, n).tolist())
        except (ValueError, IndexError, MemoryError) as exc:
            errors.append(f"key {key!r}: cannot allocate a grid of {n} points ({exc})")
            return None
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
    return tuple(values)


def _check_domain(key: str, grid: tuple[float, ...], errors: list[str]):
    holds, text = _DOMAINS[key]
    for x in grid:
        if not math.isfinite(x):
            errors.append(f"key {key!r}: value {x!r} is not finite")
        elif not holds(x):
            errors.append(f"key {key!r}: value {x!r} outside {text}")


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
    too_many = too_many_draws("key 'draws'", cfg.draws)
    if too_many:
        errors.append(too_many)
    if not errors:
        _check_recipe(cfg, errors)
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg

