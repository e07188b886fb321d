"""The exit-code contract as a property: any document, no traceback.

Documents are drawn from the config grammar: every experiment, any subset
of keys, grid values at and just inside each domain bound (plus ordinary
interior values), grids of at most five points and at most 20 draws.
Whatever the document, ``swapsim run`` must return 0, 2, 3 or 4 and
print no traceback. A ``linspace``/``logspace`` may also ask for
``10**20`` points, a count numpy refuses before allocating anything; the
run must then exit 2 and name the key. So must a ``draws`` past the
longest column numpy can hold, given as the key or as ``check --draws``.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim.cli import main
from swapsim.config import EXPERIMENTS, MAX_DRAWS
from swapsim.recipes import RECIPES

TINY = 5e-324  # smallest positive double
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
    run, so of two faults the underflowing loss-matched pair at t2 = 1e-200
    is reported, not the vanishing heralding probability of the weak
    equal inputs at the first t2."""
    with tempfile.TemporaryDirectory() as work:
        cfg = Path(work) / "imbalance.cfg"
        cfg.write_text("experiment = imbalance-restore\nt1 = 1.0\nt2 = 0.5, 1e-200\n"
                       "xi = 1e-10\nepsilon = 0.5\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(cfg), "--out", str(Path(work) / "out")])
    assert code == 2
    assert err.getvalue() == "error: degenerate inputs: photon-pair scale underflows to zero\n"
