"""floatfmt.write_values, and its kernel on short arrays, against repr,
value by value."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import floatfmt
from swapsim.config import validate_config
from swapsim.floatfmt import FLOATFMT_MIN, write_values
from swapsim.recipes import RECIPES

ROOT = Path(__file__).resolve().parent.parent


def _reprs(values):
    return [repr(x) for x in values.tolist()]


def _texts(rows):
    """Each row of written text as str: its characters in order, its NULs
    dropped."""
    assert rows.dtype == np.uint8 and rows.shape[1:] == (floatfmt.WIDTH,)
    return [row.replace(b"\0", b"").decode("ascii") for row in map(bytes, rows)]


def _written(values):
    """``write_values`` of ``values`` into rows of NULs."""
    rows = np.zeros((values.size, floatfmt.WIDTH), dtype=np.uint8)
    write_values(rows, values)
    return rows


def _kernel(values):
    """The kernel's rows for ``values``, also for fewer than
    ``FLOATFMT_MIN``, where ``write_values`` would use ``repr``."""
    rows = np.zeros((values.size, floatfmt.WIDTH), dtype=np.uint8)
    floatfmt._write_floats(rows, values)
    return rows


def _edges():
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 0.3,
              2 / 3, 9999999999999998.0, 123456.789, 1.5e-7]
    values += [10.0 ** k for k in range(-323, 309)]
    values += [2.0 ** k for k in range(-1074, 1024)]
    for x in (1e-4, 1e-5, 1e16, 9999999999999998.0):
        values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    # integer-valued floats near 2**53, where the spacing grows from 1 to 2
    values += [float(2 ** 53 + k) for k in range(-8, 9)]
    values += [math.inf, math.nan]
    return np.array(values + [-x for x in values])


def test_edge_values_match_repr():
    values = _edges()
    assert values.size >= FLOATFMT_MIN
    assert _texts(_written(values)) == _reprs(values)


def test_random_bit_patterns_match_repr():
    rng = np.random.default_rng(20240518)
    bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64, endpoint=False)
    # NaNs with random payloads and both signs, infinities, zeros, subnormals
    special = rng.integers(0, 2 ** 52, size=2_000, dtype=np.uint64)
    special[:4] = 0
    exponents = np.repeat(np.uint64([0x7FF, 0, 0x7FF + 0x800, 0x800]), 500)
    bits[:2_000] = (exponents << np.uint64(52)) | special
    values = bits.view(np.float64)
    assert _texts(_written(values)) == _reprs(values)


def test_decimal_grids_match_repr():
    # short decimals, where most digits are dropped, and values whose text
    # has the point inside the digits or past them
    rng = np.random.default_rng(5)
    values = np.concatenate([
        np.round(rng.random(5_000), 3),
        np.linspace(0.01, 1.0, 300),
        np.round(rng.random(5_000) * 1e6, 2),
        rng.random(5_000) * 10.0 ** rng.integers(-30, 30, 5_000),
        rng.integers(-2 ** 53, 2 ** 53, 5_000).astype(np.float64),
    ])
    assert _texts(_written(values)) == _reprs(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=20))
def test_any_floats_match_repr(values):
    array = np.array(values, dtype=np.float64)
    assert _texts(_kernel(array)) == _reprs(array)


def _floor_ends(mv, i, q):
    """Ryū's ``(vr, vp, vm)`` in Python integers: ``floor((mv + k) * 5**i /
    2**q)`` for ``k = 0, 2, -2``."""
    return [(mv + k) * 5 ** i >> q for k in (0, 2, -2)]


_FAST = np.arange(991, 1073)  # the biased exponents the fast path takes
_EDGE_FRACTIONS = (0, 1, 2 ** 52 - 1)


def test_fast_path_exponents_keep_their_bounds():
    """The fast path takes biased exponents 991..1072, where ``5**i`` fits a
    word and ``q`` is 2..59 (so ``_ends``' two-word product and shift hold).
    There the scaled interval is 30..399 wide (so one or two digits can go
    before any test) and vr has 18 or 19 digits (so the digit count needs
    no search). vr grows with the mantissa, so its two ends bound it."""
    assert np.flatnonzero(floatfmt._EXP_MASK).tolist() == _FAST.tolist()
    q, i = floatfmt._plan(_FAST)
    assert floatfmt._EXP_POW5[_FAST].tolist() == [5 ** k for k in i.tolist()]
    assert (floatfmt._EXP_Q[_FAST] == q).all()
    assert q.min() == 2 and q.max() == 59 and i.min() >= 0 and i.max() <= 27
    for i_row, q_row in zip(i.tolist(), q.tolist()):
        for fraction in _EDGE_FRACTIONS:
            vr, vp, vm = _floor_ends(4 * (2 ** 52 + fraction), i_row, q_row)
            assert 30 <= vp - vm <= 399
            assert 10 ** 17 <= vr < 10 ** 19


def test_scaled_ends_are_exact_floors():
    """At every fast exponent ``_ends`` gives the exact floors, and neither
    end is a multiple of ``2**q``, so no end ties."""
    rng = np.random.default_rng(9)
    biased = np.concatenate([rng.choice(_FAST, 20_000), np.repeat(_FAST, len(_EDGE_FRACTIONS))])
    fraction = np.concatenate([rng.integers(0, 2 ** 52, 20_000, dtype=np.uint64),
                               np.tile(np.uint64(_EDGE_FRACTIONS), _FAST.size)])
    mv = (fraction | np.uint64(2 ** 52)) << np.uint64(2)
    got = floatfmt._ends(mv, floatfmt._EXP_POW5[biased], floatfmt._EXP_Q[biased],
                         floatfmt._EXP_MASK[biased], floatfmt._EXP_STEP[biased],
                         floatfmt._EXP_FRAC[biased])
    q, i = floatfmt._plan(biased)
    for row, (m, i_row, q_row) in enumerate(zip(mv.tolist(), i.tolist(), q.tolist())):
        assert [int(v[row]) for v in got] == _floor_ends(m, i_row, q_row)
        assert (m + 2) * 5 ** i_row % 2 ** q_row and (m - 2) * 5 ** i_row % 2 ** q_row


def test_fast_rows_are_positive_and_in_fixed_notation():
    """The kernel lays out positive values that ``repr`` writes in fixed
    notation, ``-4 < decpt <= 16``; every other row goes to ``repr``."""
    rng = np.random.default_rng(33)
    # fixed-notation values, values near 1e-5 (whose exponents the fast
    # path takes) and near 1e17 (past 2**54, where it takes none), and each
    # of them negated
    positive = np.concatenate([rng.random(200), 10.0 ** rng.uniform(-3.9, 16, 200),
                               10.0 ** rng.uniform(-6, -4, 100), 10.0 ** rng.uniform(16, 18, 100),
                               [1e-5, 1e17, 1e-4, 9999999999999998.0, 0.001, 123.456]])
    values = np.concatenate([positive, -positive, [-0.0, 0.0]])
    assert values.size >= FLOATFMT_MIN
    fast, _, _, decpt = floatfmt._fast_digits(values.view(np.uint64))
    texts = _reprs(values)
    assert fast.sum() > 300
    for x, text, dp in zip(values[fast].tolist(), np.array(texts)[fast], decpt[fast].tolist()):
        assert x > 0.0 and "e" not in text and -4 < dp <= 16, text
    assert any("e" in text for text in texts) and np.signbit(values).sum() > 500
    assert _texts(_written(values)) == texts


def test_positive_fixed_notation_goes_to_repr_only_by_ryus_rules():
    """The converse of the test above: a positive value that ``repr`` writes
    in fixed notation leaves the fast path exactly where Ryū's general case
    holds (``q <= 1``, or ``4 * m2`` a multiple of ``2**q``) or it is a power
    of two, with ``q`` computed here from Python integers."""
    rng = np.random.default_rng(34)
    values = np.concatenate([
        10.0 ** rng.uniform(-4, 16, 30_000),
        rng.integers(1, 10 ** 7, 15_000) / 10.0 ** rng.integers(0, 8, 15_000),  # short decimals
        rng.integers(1, 2 ** 50, 20_000).astype(np.float64),
        2.0 ** np.arange(-13, 54),
    ])
    values = values[(values >= 1e-4) & (values < 1e16)]
    assert values.size > 64_000 and "e" not in "".join(_reprs(values))
    fast, *_ = floatfmt._fast_digits(values.view(np.uint64))
    general = []
    for bits in values.view(np.uint64).tolist():
        fraction, ne2 = bits & (2 ** 52 - 1), 1077 - (bits >> 52)
        q = len(str(5 ** ne2)) - 1 - (ne2 > 1)  # floor(-e2 * log10(5)), less 1 past -e2 = 1
        general.append(q <= 1 or 4 * (2 ** 52 + fraction) % 2 ** q == 0 or fraction == 0)
    assert 0 < sum(general) < values.size
    assert (~fast).tolist() == general


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("source", ["perfbench surface-grid", "bundled concurrence_surface.cfg"])
def test_benchmark_surfaces_take_the_fast_path_only(source, tmp_path):
    """Every row of the surface columns that the benchmark writes through
    the kernel (perfbench's 300 x 300 grid and the bundled 50 x 50 one)
    takes the fast path, so a change that sends them to ``repr`` fails here
    and not only in the timings."""
    if source.startswith("perfbench"):
        cfg_path = _load_workloads().SurfaceGrid(ROOT, tmp_path, 7).cfg
    else:
        cfg_path = ROOT / "scripts" / "configs" / "concurrence_surface.cfg"
    cfg = validate_config(cfg_path.read_text(encoding="utf-8"))
    columns = RECIPES[cfg.experiment].runner(cfg).columns
    (column,) = [c for c in columns.values() if getattr(c, "dtype", None) == np.float64]
    assert column.size == len(cfg.t1) * len(cfg.t2) >= 2500
    fast, *_ = floatfmt._fast_digits(column.view(np.uint64))
    assert fast.all(), np.flatnonzero(~fast)[:5]


@pytest.mark.parametrize("values", [[], [1.0], [0.1], [-0.0, 1e300]])
def test_short_arrays(values):
    array = np.array(values, dtype=np.float64)
    assert _texts(_kernel(array)) == _reprs(array)


def test_two_dimensional_input_is_rejected():
    with pytest.raises(ValueError, match="1-D"):
        write_values(np.zeros((4, floatfmt.WIDTH), dtype=np.uint8), np.zeros((2, 2)))


# either side of FLOATFMT_MIN, and either side of 576, the threshold of the
# earlier byte-row kernel, which both now take the word-wise kernel
@pytest.mark.parametrize("size", [FLOATFMT_MIN - 1, FLOATFMT_MIN, 575, 576])
def test_format_values_floats_match_repr_either_side_of_the_kernel_threshold(size):
    values = _edges()[:size]
    assert _texts(_written(values)) == _reprs(values)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint64])
def test_format_values_integers_match_repr(dtype):
    info = np.iinfo(dtype)
    values = np.array([info.min, info.max, 0, 1, 7] * FLOATFMT_MIN, dtype=dtype)
    assert _texts(_written(values)) == _reprs(values)


@pytest.mark.parametrize("values", [[True], np.float32([0.1]), ["0.1"], [1j]])
def test_format_values_refuses_other_dtypes(values):
    with pytest.raises(TypeError, match="cannot write a .* column: only integers and float64"):
        _written(np.array(values))
