"""The exit-code contract as a property: any document, no traceback.

Documents are drawn from the config grammar: every experiment, any subset
of keys, grid values at and just inside each domain bound (plus ordinary
interior values), grids of at most five points and at most 20 draws.
Whatever the document, ``swapsim run`` must return 0, 2, 3 or 4 and
print no traceback. A ``linspace``/``logspace`` may also ask for
``10**20`` points, a count numpy refuses before allocating anything; the
run must then exit 2 and name the key. So must a ``draws`` past the
longest column numpy can hold, given as the key or as ``check --draws``.
A ``theta-fringes`` phase grid that the validator accepts must run to
exit 0, and one it rejects is a configuration error naming ``theta``;
an accepted document runs to exit 0 however few counts it asks for.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapsim.cli import main
from swapsim.config import EXPERIMENTS, MAX_DRAWS, ConfigError, validate_config
from swapsim.recipes import RECIPES

TINY = 5e-324  # smallest positive double
TWO_PI = 2.0 * math.pi
HUGE = 10 ** 20  # grid count past numpy's largest array


def _near(*bounds):
    """Each bound together with its neighbours one ulp inside the domain."""
    values = set()
    for lo, hi in bounds:
        values |= {lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo)}
    return sorted(values)


# (lo, hi) of each grid key's domain; exclusive ends are drawn anyway and
# must then be rejected with exit 2
DOMAINS = {
    "t1": (0.0, 1.0),
    "t2": (0.0, 1.0),
    "t": (0.0, 1.0),
    "theta": (0.0, 2.0 * math.pi),
    "epsilon": (0.0, 0.5),
    "xi": (-0.5, 0.5),
    "ratio": (0.0, 1.0),
}
EDGES = {
    key: _near((lo, hi), (0.0, TINY)) if lo < 0.0 else _near((lo, hi))
    for key, (lo, hi) in DOMAINS.items()
}


def _values(key):
    lo, hi = DOMAINS[key]
    return st.one_of(st.sampled_from(EDGES[key]), st.floats(lo, hi))


@st.composite
def grids(draw, key):
    lo, hi = DOMAINS[key]
    kind = draw(st.sampled_from(["list", "linspace", "logspace"]))
    if kind == "list":
        values = draw(st.lists(_values(key), min_size=1, max_size=5))
        return ", ".join(repr(v) for v in values)
    n = draw(st.one_of(st.integers(1, 5), st.just(HUGE)))
    if kind == "logspace":
        a, b = draw(st.floats(TINY, hi)), draw(st.floats(TINY, hi))
    else:
        a, b = draw(_values(key)), draw(_values(key))
    return f"{kind}({a!r}, {b!r}, {n})"


SCALARS = {
    "seed": st.sampled_from([0, 1, 2 ** 32, 2 ** 63]).map(str),
    "normalize": st.sampled_from(["true", "false"]),
    "draws": st.integers(1, 20).map(str),
    "counts": st.one_of(
        st.sampled_from([0.0, TINY, 1e-3, 1.0, 1e5, 1e300]),
        st.floats(0.0, 1e9),
    ).map(repr),
}


@st.composite
def documents(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    lines = [f"experiment = {experiment}"]
    # mostly keys the experiment reads, so that most runs get past validation
    used = sorted(SCALARS) + sorted(RECIPES[experiment].grids)
    keys = draw(st.one_of(
        st.sets(st.sampled_from(used)),
        st.sets(st.sampled_from(sorted(SCALARS) + sorted(DOMAINS))),
    ))
    for key in sorted(keys):
        value = draw(SCALARS[key] if key in SCALARS else grids(key))
        lines.append(f"{key} = {value}")
    if "draws" not in keys:
        lines.append("draws = 20")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(documents())
# whether a draw meets an epsilon whose square underflows is up to chance;
# this one runs in every checkout
@example("experiment = imbalance-restore\nepsilon = 1e-200\ndraws = 20\n")
def test_run_exits_with_a_documented_code(doc):
    with tempfile.TemporaryDirectory() as work:
        cfg = Path(work) / "sweep.cfg"
        cfg.write_text(doc)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(cfg), "--out", str(Path(work) / "out"),
                         "--dump-state", str(Path(work) / "state.json")])
    assert code in (0, 2, 3, 4), (doc, code)
    assert "Traceback" not in err.getvalue(), doc
    for line in doc.splitlines():
        key, _, value = line.partition(" = ")
        if value.endswith(f", {HUGE})"):
            assert code == 2, doc
            assert f"key {key!r}: cannot allocate a grid of {HUGE} points" in err.getvalue(), doc


def _run_fringes(thetas, work, more=""):
    """``swapsim run`` of a ``theta-fringes`` document with this phase grid
    and the lines ``more``: (document, exit code, stderr)."""
    doc = "experiment = theta-fringes\ntheta = " + ", ".join(map(repr, thetas)) + "\n" + more
    cfg = Path(work) / "sweep.cfg"
    cfg.write_text(doc)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(cfg), "--out", str(Path(work) / "out")])
    return doc, code, err.getvalue()


@pytest.mark.parametrize("thetas", [
    [0.5, 0.1, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    [0.1, 1.0, 2.0],
    [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
])
def test_a_phase_grid_the_fit_refuses_is_a_configuration_error(thetas):
    """Each grid once passed the validator and then stopped the run."""
    with tempfile.TemporaryDirectory() as work:
        _, code, err = _run_fringes(thetas, work)
        assert code == 2
        assert err.startswith("configuration error:\n")
        assert all(line.startswith("key 'theta': ") for line in err.splitlines()[1:]), err
        assert sorted(p.name for p in Path(work).iterdir()) == ["sweep.cfg"]


@st.composite
def phase_grids(draw):
    """1 to 20 phases in [0, 2*pi), sorted or as drawn: anywhere, or each
    within its own step of an even grid (the last may round up to 2*pi)."""
    n = draw(st.integers(1, 20))
    if draw(st.booleans()):
        thetas = draw(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=n, max_size=n))
    else:
        offsets = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
        thetas = [(k + x) * TWO_PI / n for k, x in enumerate(offsets)]
    return sorted(thetas) if draw(st.booleans()) else thetas


@settings(max_examples=100, deadline=None)
@given(phase_grids())
# max - min is 5 and 5.5, yet every phase lies on a short arc; the fit's
# baseline came out negative on both
@example([0.0, 1e-10, 2e-10, 3e-10, 4e-10, 5e-10, 6e-10, 5.0])
@example([0.0, 0.001, 0.002, 0.003, 5.5, 5.501, 5.502, 5.503])
@example(np.linspace(0.0, TWO_PI, 16, endpoint=False).tolist())
def test_fringes_run_whenever_the_phase_grid_is_accepted(thetas):
    with tempfile.TemporaryDirectory() as work:
        doc, code, err = _run_fringes(thetas, work)
    try:
        validate_config(doc)
    except ConfigError:
        assert code == 2, (doc, err)
        assert err.startswith("configuration error:\nkey 'theta': "), (doc, err)
    else:
        assert code == 0, (doc, err)


def _even_grid(n):
    return np.linspace(0.0, TWO_PI, n, endpoint=False).tolist()


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(8, 20).map(_even_grid), phase_grids()),
       st.floats(0.0, 10.0, exclude_min=True), st.integers(0, 2 ** 32))
# so few counts that every setting's scan is empty, or some settings' are
@example(_even_grid(16), TINY, 0)
@example(_even_grid(16), 1e-3, 0)
def test_fringes_run_whatever_the_mean_count(thetas, counts, seed):
    with tempfile.TemporaryDirectory() as work:
        doc, code, err = _run_fringes(thetas, work, f"counts = {counts!r}\nseed = {seed}\n")
    try:
        validate_config(doc)
    except ConfigError:
        assert code == 2, (doc, err)
    else:
        assert code == 0, (doc, err)


@pytest.mark.parametrize("draws", [HUGE, MAX_DRAWS + 1])
def test_draws_past_numpy_exits_2_naming_the_key_or_flag(draws):
    """A ``draws`` no numpy column can hold is a configuration error: the
    message names the key or the flag and the value, and nothing is made."""
    with tempfile.TemporaryDirectory() as work:
        cfg = Path(work) / "big.cfg"
        cfg.write_text(f"experiment = oracle-check\ndraws = {draws}\n")
        out = Path(work) / "out"
        for argv, name in ((["run", str(cfg), "--out", str(out)], "key 'draws'"),
                           (["check", "--draws", str(draws)], "--draws")):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code == 2, argv
            assert err.getvalue() == (f"configuration error:\n{name}: {draws} draws do not "
                                      f"fit in a numpy array (at most {MAX_DRAWS})\n")
        assert sorted(p.name for p in Path(work).iterdir()) == ["big.cfg"]


def test_imbalance_inputs_are_checked_before_any_closed_form():
    """``imbalance-restore`` builds every input pair before its closed forms
    run, so of two faults the loss-matched pair whose scale underflows at
    epsilon = 1e-200 is reported, not the vanishing heralding probability
    of the weak equal inputs at the first t2."""
    with tempfile.TemporaryDirectory() as work:
        cfg = Path(work) / "imbalance.cfg"
        cfg.write_text("experiment = imbalance-restore\nt1 = 1.0\nt2 = 0.5, 1.0\n"
                       "xi = 1e-10\nepsilon = 1e-200\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(cfg), "--out", str(Path(work) / "out")])
    assert code == 2
    assert err.getvalue() == "error: degenerate inputs: photon-pair scale underflows to zero\n"


@pytest.mark.parametrize("command", ["check", "run"])
def test_draws_that_do_not_fit_in_memory_exit_2(command):
    """The largest ``draws`` the validator accepts asks for an 8 EiB column,
    which fails to allocate at once: exit 2, and nothing is made."""
    with tempfile.TemporaryDirectory() as work:
        cfg = Path(work) / "big.cfg"
        cfg.write_text(f"experiment = oracle-check\ndraws = {MAX_DRAWS}\n")
        argv = (["check", "--draws", str(MAX_DRAWS)] if command == "check"
                else ["run", str(cfg), "--out", str(Path(work) / "out")])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 2
        assert err.getvalue().startswith("error: out of memory: ")
        assert sorted(p.name for p in Path(work).iterdir()) == ["big.cfg"]
