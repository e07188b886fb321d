"""Named sweep recipes and the batch runner.

Each recipe evaluates a parameter grid with the pure library functions
and returns columns (header name -> values, in grid order) of two kinds.
A grid axis column is an ``AxisColumn``: the ASCII text of ``str`` of each
axis value, kept once, and the rule that says which text each row holds.
Every computed column is a 1-D numpy array: float64 straight from the
closed forms, int64 for counts, draw numbers and signs. One writer,
``_write_csv``, puts every field out as the text of ``str(value)`` of its
Python value (a computed value's comes from ``floatfmt``), so a given
configuration always writes a byte-identical CSV; no field needs quoting.
It builds the text ``CSV_BLOCK`` rows at a time, one ``floatfmt`` call per
computed column, and squeezes and writes it ``CSV_CHUNK`` rows at a time.
The two stages overlap when a second CPU is free: the calling thread
builds the next block while one writer thread squeezes and writes the
one before, one block in flight at most, so the bytes and their order
are the same. A CSV of one block, and every CSV written with no CPU to
spare (one CPU, or numpy's BLAS threads still busy after import), is
written on the calling thread alone.
A JSON sidecar holds the full configuration, library version, the
environment (python and numpy versions, operating system, cpu count),
wall time, where that time went (``timings_s``: compute, write, and the
part of write the calling thread spent turning columns into text, format:
building every block, and squeezing the blocks it writes itself) and the
compute rate (``points_per_s``: CSV rows over compute seconds).

The closed-form recipes evaluate whole grids in array calls: the
surface and the slices each make one call per closed form on the
broadcast grid ``(t1[:, None], t2)``, and ``imbalance-restore``, whose
input amplitudes change from point to point, builds its stack of input
pairs first and makes one call per closed form over it (its Bell
fidelities alone are taken state by state). Every member of a stacked
call equals the call at its point alone, bit for bit.

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
                        (the brute-force route draw by draw, at the
                        settings "X+" and "X-"; the closed forms and all
                        three deviation columns ``CHUNK`` draws at a
                        time: one ``closed_form_rho`` and one
                        ``concurrence_closed_form`` call over the stack
                        of pairs, dev_norm from one difference with the
                        summed weights, max_dev_rho from one stacked
                        difference of heralded and closed-form states,
                        dev_concurrence from one stacked Wootters call)

Success probabilities are absolute heralding probabilities summed over
both entangling outcomes; ``p_normalized`` divides by the same inputs on
lossless channels. All transmittivities are AMPLITUDE transmittivities
(power transmission is t^2).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import platform
import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__
from .experiment import (
    CountModel,
    _full_period,
    estimate_visibility,
    normalized_success,
    pump_split,
    spdc_input,
    synth_counts,
    SpdcSource,
)
from .floatfmt import WIDTH, write_values
from .loss import LossChannel
from .metrics import (
    TWO_PI,
    bell_fidelity,
    concurrence_closed_form,
    concurrence_wootters,
    visibility_analytic,
)
from .protocol import (
    MAX_ENTANGLED_PAIR,
    SETTINGS,
    _heralded,
    closed_form_rho,
    optimal_inputs,
    random_input_pair,
    success_probability,
    swap,
)

if TYPE_CHECKING:
    from .config import SweepConfig

__all__ = ["AxisColumn", "Recipe", "RecipeResult", "RunReport", "RECIPES", "ORACLE_CHECKS", "run",
           "run_oracle_draws", "DrawError", "oracle_verdicts", "describe_recipes"]

# oracle-check: summary key -> (CSV column whose maximum it holds, label,
# key in the summary's "tolerances", tolerance); in summary and print order
ORACLE_CHECKS = {
    "max_dev_rho": ("max_dev_rho", "state entries vs closed form", "rho", 1e-12),
    "max_dev_norm": ("dev_norm", "heralding probability vs summed weights", "norm", 1e-12),
    "max_dev_concurrence": ("dev_concurrence", "concurrence vs closed form", "concurrence",
                            1e-10),
}

# oracle-check draws per stacked closed-form and concurrence_wootters call
CHUNK = 128

# CSV rows joined into one string per write
CSV_CHUNK = 4096
# CSV rows built into one byte matrix, one floatfmt call per float column:
# larger blocks spread numpy's fixed cost per call over more values, but
# the NUL squeeze stays per CSV_CHUNK, where its mask and output are
# cache-sized (on a 300x300 surface 8192 and 16384 timed best, and 32768
# and 65536 slower)
CSV_BLOCK = 16384


@dataclass(frozen=True)
class RecipeResult:
    """One recipe's output: CSV columns, summary, and extra files.

    ``columns`` maps each header name, in order, to its column, one of
    two kinds: grid axis columns as ``AxisColumn`` (each value's text kept
    once, see ``_product``) and every computed column (floats, counts, the
    oracle's per-draw values) as a 1-D integer or float64 numpy array
    (see ``_write_csv``).
    ``rep`` is the representative grid point as data, ``(pair, t1, t2)``;
    ``run`` builds its X+ heralded state only for ``--dump-state``.
    ``extra`` holds one ``(filename, columns)`` pair per extra CSV file.
    """

    columns: dict
    summary: dict
    rep: tuple
    ok: bool = True
    extra: tuple = ()


@dataclass(frozen=True)
class Recipe:
    """One named experiment: its runner, defaults and config rules.

    ``grids`` holds the default of every grid key the recipe reads; a
    config that sets any other grid key is rejected. A ``(key, holds, text)``
    rule gets the whole grid of a key the config sets, as a tuple (``counts``
    as one value); ``holds`` false reads "key '<key>': this experiment <text>".
    """

    description: str
    runner: Callable[[SweepConfig], RecipeResult]
    grids: dict
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
    return RECIPES[cfg.experiment].grids[key] if value is None else value


@dataclass(frozen=True, eq=False)
class AxisColumn:
    """One axis column of a Cartesian product (see ``_product``).

    ``texts`` holds the ASCII text of ``str(value)`` of each axis value once,
    as an ``S`` array, and row ``k`` of the column is
    ``texts[k // inner % len(texts)]``; ``rows`` is the column's length.
    """

    texts: np.ndarray
    inner: int
    rows: int

    def __len__(self):
        return self.rows


def _product(**axes):
    """Axis columns of the Cartesian product of ``axes``, in row order.

    The first axis varies slowest. Each value is formatted once, as
    ``str(value)``; the writer gathers a row's text by index.
    """
    columns, rows = {}, math.prod(len(values) for values in axes.values())
    inner = rows
    for name, values in axes.items():
        inner //= len(values)
        texts = np.array([str(value) for value in values], dtype=np.bytes_)
        columns[name] = AxisColumn(texts, inner, rows)
    return columns


# ---------------------------------------------------------------- recipes

def _run_surface(cfg: SweepConfig):
    g1, g2 = _grid(cfg, "t1"), _grid(cfg, "t2")
    conc = concurrence_closed_form(MAX_ENTANGLED_PAIR, np.array(g1)[:, None], np.array(g2))
    columns = {**_product(t1=g1, t2=g2), "concurrence": conc.ravel()}
    summary = {"points": conc.size, "max_concurrence": float(conc.max())}
    return RecipeResult(columns, summary, (MAX_ENTANGLED_PAIR, g1[0], g2[0]))


def _run_slices(cfg: SweepConfig):
    g1, g2 = _grid(cfg, "t1"), _grid(cfg, "t2")
    t1, t2 = np.array(g1)[:, None], np.array(g2)
    conc = concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, t2)
    rho, norm = closed_form_rho(MAX_ENTANGLED_PAIR, t1, t2, sign=+1)
    columns = {**_product(t1=g1, t2=g2), "concurrence": conc.ravel(),
               "visibility": visibility_analytic(rho).ravel(), "p_success": norm.ravel()}
    summary = {"points": conc.size, "t1_values": list(g1)}
    return RecipeResult(columns, summary, (MAX_ENTANGLED_PAIR, g1[0], g2[0]))


def _run_fringes(cfg: SweepConfig):
    t1, t2 = _grid(cfg, "t1")[0], _grid(cfg, "t2")[0]
    thetas = _grid(cfg, "theta")
    xi, ratio = _grid(cfg, "xi")[0], _grid(cfg, "ratio")[0]
    mean = cfg.counts
    # xi is the total pump amplitude scale; the split divides it between sources
    pair = spdc_input(*pump_split(ratio, xi))
    # one pair and one channel object per arm serve all six settings, so the
    # input ket and its two dilations are built once and kept for the rest
    ch1, ch2 = LossChannel(t1), LossChannel(t2)
    children = np.random.SeedSequence(cfg.seed).spawn(len(SETTINGS))
    tags = [name.replace("+", "p").replace("-", "m") for name in SETTINGS]  # X+ -> Xp
    probs, hits, fits = [], [], {}
    for name, tag, child in zip(SETTINGS, tags, children):
        model = CountModel(mean, int(child.generate_state(1, np.uint64)[0]))
        counts = synth_counts(pair, ch1, ch2, name, thetas, model)
        scan = counts.scan
        probs.append(np.stack((scan.p_plus, scan.p_minus), axis=1).ravel())
        hits.append(np.stack((counts.counts_plus, counts.counts_minus), 1).ravel())
        fit = estimate_visibility(thetas, counts.counts_plus)
        fits[tag] = {"v": fit.v, "sigma": fit.sigma}
    # rows run setting by setting, then theta by theta, the "+" outcome before
    # the "-" one; every setting scans the same grid
    axes = {"theta_rad": scan.thetas.tolist(), "outcome_sign": ("+", "-")}
    prob = np.concatenate(probs)
    columns = {**_product(setting=tags, **axes), "probability": prob,
               "expected_counts": mean * prob, "counts": np.concatenate(hits)}
    block = _product(**axes)
    extra = tuple((f"counts_{tag}_seed{cfg.seed}.csv", {**block, "counts": part})
                  for tag, part in zip(tags, hits))
    return RecipeResult(columns, {"fitted_visibility": fits}, (pair, t1, t2), extra=extra)


def _run_scaling(cfg: SweepConfig):
    grid = _grid(cfg, "t")
    xi = _grid(cfg, "xi")[0]
    pair = spdc_input(SpdcSource(xi), SpdcSource(xi))
    roots = np.sqrt(grid)
    p = success_probability(pair, roots, roots)
    _heralded(p)
    columns = {**_product(t=grid), "t1": roots, "p_success": p}
    if cfg.normalize:
        columns["p_normalized"] = normalized_success(pair, roots, roots)
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
    return RecipeResult(columns, summary, (pair, root, root))


def _run_imbalance(cfg: SweepConfig):
    t1 = _grid(cfg, "t1")[0]
    g2 = _grid(cfg, "t2")
    xi = _grid(cfg, "xi")[0]
    epsilon = _grid(cfg, "epsilon")[0]
    equal = spdc_input(SpdcSource(xi), SpdcSource(xi))
    strategies = ("equal", "optimal")
    # rows run t2 by t2, the equal inputs before the loss-matched ones
    pairs = [pair for t2 in g2 for pair in (equal, optimal_inputs(t1, t2, epsilon))]
    t2s = np.repeat(g2, len(strategies))
    rhos, norms = closed_form_rho(pairs, t1, t2s, sign=+1)
    columns = {**_product(t1=(t1,), t2=g2, strategy=strategies),
               "visibility": visibility_analytic(rhos), "concurrence": concurrence_wootters(rhos),
               # row by row: a stacked product rounds differently at times
               "bell_fidelity": np.array([bell_fidelity(rho, sign=+1, phase=0.0) for rho in rhos]),
               "p_success": norms}
    if cfg.normalize:
        columns["p_normalized"] = normalized_success(pairs, t1, t2s)
    summary = {
        "t1": t1,
        "equal_visibility_shape": "2*t1*t2/(t1^2+t2^2)",
        "optimal_success_shape": "2*t1^2*t2^2/(t1^2+t2^2)",
    }
    return RecipeResult(columns, summary, (pairs[1], t1, g2[0]))


class DrawError(ValueError):
    """A ``ValueError`` raised inside an oracle draw: the draws' inputs are
    valid by construction, so it is a defect of the library, not of the
    caller's input. Its text names the draw's index and the seed."""


def run_oracle_draws(draws: int, seed: int) -> RecipeResult:
    """Randomized closed-form vs brute-force cross-check.

    Each draw runs the brute-force route for both X settings, "X+" and
    "X-"; its pair and two channels are built once and serve both. So do
    the input ket ``build_inputs`` keeps with the pair and the two
    dilations ``dilate`` keeps with the kets: the second outcome pays only
    for its ``bsm``, with the bits of a swap built afresh. The columns are
    numpy arrays allocated before the first draw and filled draw by draw:
    ``draw`` and ``sign`` int64, the rest float64. A draw's pair, heralded state and summed
    weights wait in ``CHUNK``-sized buffers. Each full (or last) buffer
    makes one ``closed_form_rho`` and one ``concurrence_closed_form`` call
    over its stack of pairs, and fills its slice of ``dev_norm`` from one
    difference, of ``max_dev_rho`` from one stacked difference of heralded
    and closed-form states, and of ``dev_concurrence`` from one stacked
    ``concurrence_wootters`` call.
    ``ok`` is False as soon as any draw exceeds a tolerance of
    ``ORACLE_CHECKS``; ``rep`` is the first draw's point. A ``ValueError``
    raised by a draw, or by the closed forms of the buffer it completes,
    comes out as a ``DrawError`` naming that draw.
    """
    # allocated, not filled, first: a count no memory holds fails before any draw
    draw, signs = np.empty(draws, dtype=np.int64), np.empty(draws, dtype=np.int64)
    t1s, t2s, dev_rhos, dev_norms, dev_concs = (np.empty(draws) for _ in range(5))
    rng = np.random.default_rng(seed)
    states = np.empty((CHUNK, 4, 4), dtype=complex)
    weights = np.empty(CHUNK)
    pairs = []
    try:
        for i in range(draws):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.05, 1.0, size=2).tolist()
            sign = +1 if rng.integers(0, 2) == 0 else -1
            ch1, ch2 = LossChannel(t1), LossChannel(t2)
            brute = swap(pair, ch1, ch2, "X+" if sign > 0 else "X-")
            other = swap(pair, ch1, ch2, "X-" if sign > 0 else "X+")
            k = i % CHUNK
            pairs.append(pair)
            states[k] = brute.rho_ab.entries
            weights[k] = brute.p_success + other.p_success
            draw[i], t1s[i], t2s[i], signs[i] = i, t1, t2, sign
            if k == CHUNK - 1 or i == draws - 1:
                at, n = slice(i - k, i + 1), k + 1
                rhos_cf, norms = closed_form_rho(pairs, t1s[at], t2s[at], signs[at])
                dev_norms[at] = np.abs(weights[:n] - norms)
                dev_rhos[at] = np.max(np.abs(states[:n] - rhos_cf), axis=(1, 2))
                dev_concs[at] = np.abs(concurrence_wootters(states[:n])
                                       - concurrence_closed_form(pairs, t1s[at], t2s[at]))
                pairs = []
            if i == 0:
                rep = (pair, t1, t2)
    except ValueError as exc:
        raise DrawError(f"draw {i} of seed {seed}: {exc}") from exc
    columns = {"draw": draw, "t1": t1s, "t2": t2s, "sign": signs,
               "max_dev_rho": dev_rhos, "dev_norm": dev_norms, "dev_concurrence": dev_concs}
    summary = {"draws": draws}
    for key, (column, _, _, _) in ORACLE_CHECKS.items():
        summary[key] = float(columns[column].max())
    summary["tolerances"] = {tol_key: tol for _, _, tol_key, tol in ORACLE_CHECKS.values()}
    ok = summary["passed"] = all(passed for passed, *_ in oracle_verdicts(summary))
    return RecipeResult(columns, summary, rep, ok)


def oracle_verdicts(summary: dict) -> list[tuple[bool, str, float, float]]:
    """``(passed, label, max deviation, tolerance)`` per oracle check, in order."""
    return [(summary[key] <= tol, label, summary[key], tol)
            for key, (_, label, _, tol) in ORACLE_CHECKS.items()]


def _positive(key: str):
    return (key, lambda grid: min(grid) > 0.0, f"needs {key} > 0")


def _single(key: str):
    return (key, lambda grid: len(grid) == 1, "takes a single value")


_NONZERO_XI = ("xi", lambda grid: 0.0 not in grid, "needs xi != 0")
# the phase grid that estimate_visibility fits
_PHASE_GRID = (("theta", lambda grid: len(grid) >= 8, "needs at least 8 phases"),
               ("theta", lambda g: g == tuple(sorted(set(g))), "needs strictly increasing phases"),
               ("theta", _full_period, "needs phases spanning a full period"))

RECIPES = {
    "concurrence-surface": Recipe(
        "concurrence of the heralded state over a (t1, t2) grid with "
        "maximally entangled inputs",
        _run_surface,
        dict.fromkeys(("t1", "t2"), tuple(np.linspace(0.05, 1.0, 20).tolist())),
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
        rules=(_single("t1"), _positive("t1"), _single("t2"), _positive("t2"), *_PHASE_GRID,
               _single("xi"), _NONZERO_XI, _single("ratio"),
               ("ratio", lambda grid: 0.0 < min(grid) <= max(grid) < 1.0, "needs 0 < ratio < 1"),
               _positive("counts")),
    ),
    "scaling-balanced": Recipe(
        "heralding probability vs total transmission t for balanced "
        "channels t1 = t2 = sqrt(t); summary reports the log-log slope",
        _run_scaling,
        {"t": tuple(np.geomspace(1e-3, 1.0, 25).tolist()), "xi": (0.05,)},
        rules=(_positive("t"), _single("xi"), _NONZERO_XI),
    ),
    "imbalance-restore": Recipe(
        "visibility/fidelity degradation from unbalanced losses and its "
        "restoration by loss-matched input amplitudes",
        _run_imbalance,
        {"t1": (1.0,), "t2": tuple(np.linspace(0.1, 1.0, 10).tolist()),
         "xi": (0.05,), "epsilon": (0.01,)},
        rules=(_single("t1"), _positive("t1"), _positive("t2"), _single("epsilon"),
               _single("xi"), _NONZERO_XI),
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


def _fields(columns):
    """``columns`` (see ``_write_csv``) as ``(column, end)`` pairs, where
    ``end`` is the byte after the column's field: ``,``, or a newline for the
    last column. An ``AxisColumn`` carries it at the end of each of its
    texts instead (``end`` is None), so that a field and its separator are
    one run of bytes for ``_csv_rows`` to keep: a byte column of its own per
    axis, after the gathered slot, cut the 300 x 300 surface's throughput
    by 6.4%."""
    ends = [b","] * (len(columns) - 1) + [b"\n"]
    return [(AxisColumn(np.char.add(column.texts, end), column.inner, column.rows), None)
            if isinstance(column, AxisColumn) else (column, end)
            for column, end in zip(columns, ends)]


def _csv_rows(fields, start, stop):
    """Rows ``start`` to ``stop`` of ``fields`` (see ``_fields``) as one
    ``uint8`` matrix, a row of bytes per CSV line.

    The fields are written straight into the matrix, a slot of fixed width
    each: an ``AxisColumn``'s texts gathered by row index, a numpy array's
    by ``floatfmt.write_values`` and followed by a column of its ``end``. A
    slot holds its field's characters in order and NULs, so dropping every
    NUL of a run of rows leaves their lines, each ended by a newline. Every
    byte of every slot is written, so the matrix starts uninitialised.
    """
    widths = [WIDTH + 1 if end else column.texts.itemsize for column, end in fields]
    text = np.empty((stop - start, sum(widths)), dtype=np.uint8)
    at = 0
    for (column, end), width in zip(fields, widths):
        if end:
            write_values(text[:, at:at + WIDTH], column[start:stop])
            text[:, at + WIDTH] = ord(end)
        else:
            rows = np.arange(start, stop) // column.inner
            rows -= rows // column.texts.size * column.texts.size  # %=, in faster passes
            text[:, at:at + width].view(column.texts.dtype)[:, 0] = np.take(column.texts, rows)
        at += width
    return text


def _write_block(fh, text):
    """Squeeze the NULs out of ``text`` (from ``_csv_rows``) and write it,
    ``CSV_CHUNK`` rows per ``write``; return the seconds spent squeezing and
    decoding, the writes left out."""
    squeezing = 0.0
    for at in range(0, len(text), CSV_CHUNK):
        began = time.monotonic()
        chunk = text[at:at + CSV_CHUNK]
        # decoded from the array's buffer, not a bytes copy
        lines = str(chunk[chunk != 0], "ascii")
        squeezing += time.monotonic() - began
        fh.write(lines)
    return squeezing


def _writer(fh, blocks, written):
    """Squeeze and write (``_write_block``) each block taken from ``blocks``
    until a ``None``, and after each put in ``written`` ``None``, or the
    exception its write raised."""
    # not iter(blocks.get, None), which compares a block with None element-wise
    while (text := blocks.get()) is not None:
        error = None
        try:
            _write_block(fh, text)
        except BaseException as exc:  # raised again in the caller
            error = exc
        written.put(error)


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _cpu_elsewhere():
    """CPU seconds used so far by the process's threads other than this one."""
    return time.process_time() - time.thread_time()


def _spare_cpu(elsewhere, seconds):
    """Whether a writer thread would find a CPU to itself: the process may
    run on two CPUs or more, and its other threads used under a quarter of
    a CPU (``elsewhere`` CPU seconds) over the last ``seconds``. numpy's
    BLAS threads spin on a CPU for tens of milliseconds after numpy is
    imported, and a writer thread that competes with them and the calling
    thread for two CPUs slows the calling thread more than it saves; the
    CPU time of a thread on another CPU is counted at the scheduler's
    ticks, so over a longer ``seconds`` the reading is surer."""
    return elsewhere < seconds / 4 and _cpus() > 1


def _write_csv(fh, columns):
    """Write the header, then one line per row, each field as ``str(value)``;
    return the seconds the calling thread spent turning the columns into text.

    A column is one of two kinds. An ``AxisColumn`` (from ``_product``)
    holds each distinct text once, and a block of its rows is gathered by
    index. A 1-D integer or float64 numpy array is written as ``str`` of
    each value of its ``tolist()``, its ``repr``, which
    ``floatfmt.write_values`` gives for a whole block at once; any other
    dtype is a ``TypeError``. The rows are built ``CSV_BLOCK`` at a time
    (``_csv_rows``), and each ``CSV_CHUNK`` rows of a block are squeezed to
    one string and written with one ``write`` (``_write_block``), so the
    whole file is never held as one string.

    The two stages overlap once a second CPU is free (``_spare_cpu``, over
    the time since this call began, asked after each block is built until
    the writer starts): while the calling thread builds block k+1, one
    writer thread (``_writer``, fed through a queue) squeezes and writes
    block k. The calling thread waits for that write before it hands over
    block k+1, so at most one block is in flight and the file gets its
    bytes in order. The last block, and every block before a CPU is found
    free, is squeezed and written on the calling thread, so a CSV of at
    most ``CSV_BLOCK`` rows starts no thread. A write is never left
    pending when this returns or raises, and an error raised on the writer
    thread (``_writer`` passes it back) is raised again here. The seconds
    returned count building the blocks, and squeezing the ones the calling
    thread writes itself.
    """
    fh.write(",".join(columns) + "\n")
    fields = _fields(list(columns.values()))
    rows = min((len(column) for column, _ in fields), default=0)
    formatting, writer = 0.0, None
    since, elsewhere = time.monotonic(), _cpu_elsewhere()
    try:
        for start in range(0, rows, CSV_BLOCK):
            began = time.monotonic()
            stop = min(start + CSV_BLOCK, rows)
            text = _csv_rows(fields, start, stop)
            formatting += time.monotonic() - began
            if writer is not None:
                if (error := written.get()) is not None:  # the previous block is written
                    raise error
            elif stop < rows and _spare_cpu(_cpu_elsewhere() - elsewhere, time.monotonic() - since):
                blocks, written = queue.SimpleQueue(), queue.SimpleQueue()
                writer = threading.Thread(target=_writer, args=(fh, blocks, written),
                                          name="swapsim-csv-writer")
                writer.start()
            if writer is not None and stop < rows:
                blocks.put(text)
            else:
                formatting += _write_block(fh, text)
    finally:
        if writer is not None:  # also on an error: the block in hand is written first
            blocks.put(None)
            writer.join()
    return formatting


def _environment() -> dict:
    """Interpreter, numpy, operating system and cores, for the sidecar.

    Only cheap fields: ``platform.platform()`` reads the interpreter binary
    on its first call, which would cost a small run several milliseconds.
    """
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.system(), "cpu_count": os.cpu_count()}


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
    computed = time.monotonic()
    csv_path = out / f"{cfg.experiment}.csv"
    meta_path = out / f"{cfg.experiment}.meta.json"
    extra_files = [out / filename for filename, _ in result.extra]
    if dump_state is not None:
        # every output lies in ``out`` and is replaced by name, never written
        # through a symlink, so (directory, name) pairs are what can clash
        dump = Path(dump_state)
        outputs = {p.name: p for p in (csv_path, meta_path, *extra_files)}
        clash = outputs.get(dump.name)
        if clash is not None and dump.parent.resolve() == out.resolve():
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
            formatting = _write_csv(fh, result.columns)
        for path, (_, columns) in zip(extra_files, result.extra):
            with stage(path) as fh:
                formatting += _write_csv(fh, columns)

        if dump_state is not None:
            state = swap(*result.rep, "X+").rho_ab
            with stage(dump_state) as fh:
                fh.write(json.dumps(state.to_json_dict(), indent=1) + "\n")

        written = time.monotonic()
        rows = len(next(iter(result.columns.values())))
        meta = {
            "experiment": cfg.experiment,
            "config": {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)},
            "library_version": __version__,
            "environment": _environment(),
            "wall_time_s": written - started,
            "timings_s": {"compute": computed - started, "write": written - computed,
                          "format": formatting},
            "rows": rows,
            "points_per_s": rows / (computed - started) if computed > started else None,
            "summary": result.summary,
            "files": [csv_path.name] + [p.name for p in extra_files],
        }
        with stage(meta_path) as fh:
            # one write: json.dump would make one per token
            fh.write(json.dumps(meta, indent=1, default=str) + "\n")
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
