"""Hypothesis strategies and independent test oracles shared by the tests.

The oracles here deliberately avoid the library's vectorized paths:
partial traces and projections are re-derived with explicit index loops
so the fast implementations are checked against something dumber.

The reference routes that no library code calls live here too, each the
second route of something the library computes: the Kraus loss route
(``kraus_ops``, ``apply_loss``) that ``loss.dilate`` is held to, the
weak-pair limit of the heralded state (``asymptotic_state``), the
analytic concurrence optimum (``optimal_t2``), the best split of a fixed
photon-pair scale between the two sources (``best_split_concurrence``),
which ``optimal_inputs`` approaches as epsilon -> 0, the text form of a
config (``to_text``), the inverse of ``validate_config``, the reader
of a ``--dump-state`` file (``from_json_dict``), the inverse of
``DensityMatrix.to_json_dict``, and the unit-norm rescaling of a ket
(``normalized_ket``).
"""

import math
import warnings

import numpy as np
from hypothesis import strategies as st

from swapsim import (DensityMatrix, InputPair, LossChannel, PureState, SweepConfig,
                     concurrence_closed_form)
from swapsim.config import GRID_KEYS
from swapsim.protocol import A, B, _check_sign
from swapsim.recipes import AxisColumn
from swapsim.states import Label, LabelError


# the entangling X setting's name for each sign
X_BY_SIGN = {+1: "X+", -1: "X-"}


def from_json_dict(data: dict) -> DensityMatrix:
    entries = np.array(
        [[complex(re, im) for re, im in row] for row in data["entries"]]
    )
    return DensityMatrix(tuple(data["labels"]), entries, weight=data.get("weight"))


def normalized_ket(psi: PureState) -> PureState:
    """``psi`` scaled to unit norm; a zero ket has no direction to keep."""
    n2 = psi.norm2
    if n2 <= 0.0:
        raise ValueError("cannot normalize a zero state")
    return PureState(psi.labels, psi.amps / np.sqrt(n2))


def random_pure(rng: np.random.Generator, labels) -> PureState:
    labels = tuple(labels)
    z = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return PureState(labels, z / np.linalg.norm(z))


def random_density(rng: np.random.Generator, labels, rank: int = 2) -> DensityMatrix:
    """Random mixed state: a convex mixture of random pure states."""
    labels = tuple(labels)
    weights = rng.uniform(0.1, 1.0, size=rank)
    weights /= weights.sum()
    dim = 2 ** len(labels)
    entries = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        amps = random_pure(rng, labels).amps
        entries += w * np.outer(amps, amps.conj())
    return DensityMatrix(labels, entries)


def naive_partial_trace(entries: np.ndarray, n_modes: int, keep: list) -> np.ndarray:
    """Loop-based partial trace oracle, independent of the einsum path."""
    drop = [i for i in range(n_modes) if i not in keep]
    dim_out = 2 ** len(keep)
    out = np.zeros((dim_out, dim_out), dtype=complex)

    def compose(kept_bits, dropped_bits):
        bits = [0] * n_modes
        for pos, b in zip(keep, kept_bits):
            bits[pos] = b
        for pos, b in zip(drop, dropped_bits):
            bits[pos] = b
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return idx

    for i in range(dim_out):
        ib = [(i >> (len(keep) - 1 - k)) & 1 for k in range(len(keep))]
        for j in range(dim_out):
            jb = [(j >> (len(keep) - 1 - k)) & 1 for k in range(len(keep))]
            for d in range(2 ** len(drop)):
                db = [(d >> (len(drop) - 1 - k)) & 1 for k in range(len(drop))]
                out[i, j] += entries[compose(ib, db), compose(jb, db)]
    return out


def naive_project(rho: DensityMatrix, ket: PureState) -> np.ndarray:
    """Loop-based <k|rho|k> oracle on the remaining modes."""
    n = len(rho.labels)
    # register positions of the ket's modes, in the ket's own order
    proj_pos = [rho.labels.index(lab) for lab in ket.labels]
    keep = [i for i in range(n) if i not in proj_pos]
    bra = np.zeros((2 ** len(keep), 2 ** n), dtype=complex)
    for j in range(2 ** n):
        bits = [(j >> (n - 1 - k)) & 1 for k in range(n)]
        kept_idx = 0
        for pos in keep:
            kept_idx = (kept_idx << 1) | bits[pos]
        proj_idx = 0
        for pos in proj_pos:
            proj_idx = (proj_idx << 1) | bits[pos]
        bra[kept_idx, j] += np.conj(ket.amps[proj_idx])
    return bra @ rho.entries @ bra.conj().T


def naive_dilate(amps: np.ndarray, n_modes: int, pos: int, t: float, r: float) -> np.ndarray:
    """Loop-based dilation oracle: one basis index at a time, environment bit last.

    A photon on mode ``pos`` stays with amplitude t (environment in vacuum)
    or moves to the environment with amplitude r.
    """
    bit = 1 << (n_modes - 1 - pos)
    out = np.zeros(2 ** (n_modes + 1), dtype=complex)
    for i in range(2 ** n_modes):
        if i & bit:
            out[2 * i] += t * amps[i]
            out[2 * (i ^ bit) + 1] += r * amps[i]
        else:
            out[2 * i] += amps[i]
    return out


def kraus_ops(ch: LossChannel) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair K0 = |0><0| + t|1><1| and K1 = r|0><1|."""
    k0 = np.array([[1.0, 0.0], [0.0, ch.t]], dtype=complex)
    k1 = np.array([[0.0, ch.r], [0.0, 0.0]], dtype=complex)
    return k0, k1


def apply_loss(rho: DensityMatrix, mode: Label, ch: LossChannel) -> DensityMatrix:
    """Damp one mode: photon population scales by t^2, coherences by t."""
    if mode not in rho.labels:
        raise LabelError(f"mode {mode!r} not in register {rho.labels!r}")
    pos = rho.labels.index(mode)
    left = np.eye(2 ** pos)
    right = np.eye(2 ** (len(rho.labels) - 1 - pos))
    out = np.zeros_like(rho.entries)
    for k in kraus_ops(ch):
        full = np.kron(np.kron(left, k), right)
        out = out + full @ rho.entries @ full.conj().T
    return DensityMatrix(rho.labels, out, weight=rho.weight)


def asymptotic_state(
    pair: InputPair, t1: float, t2: float, sign: int = +1
) -> PureState:
    """Unnormalized pure-state limit of the heralded state for weak pairs.

    When |alpha|, |gamma| >> |beta|, |delta| the double-emission term is
    negligible and the heralded state approaches

        alpha delta t2 |01>  +/-  beta gamma t1 |10>

    whose squared norm (available as ``.norm2``) carries the success
    scaling: for balanced channels t1 = t2 = sqrt(t) it is linear in t.
    """
    _check_sign(sign)
    amps = np.array(
        [
            0.0,
            pair.alpha * pair.delta * t2,
            sign * pair.beta * pair.gamma * t1,
            0.0,
        ],
        dtype=complex,
    )
    return PureState((A, B), amps)


def optimal_t2(t1: float) -> float:
    """Transmittivity t2 maximizing concurrence for maximally entangled inputs.

    For t1 < 1/sqrt(2) the maximum sits at t1 / sqrt(1 - t1^2), strictly
    inside (0, 1); losing MORE of Bob's photons than a lossless channel
    would can pay off. For larger t1 the concurrence is increasing on
    (0, 1] and the boundary value 1.0 is returned with a warning.
    """
    if not 0.0 < t1 <= 1.0:
        raise ValueError(f"need 0 < t1 <= 1, got {t1}")
    if t1 >= math.sqrt(0.5):
        warnings.warn(
            f"t1 = {t1} >= 1/sqrt(2): concurrence is increasing in t2, "
            "returning the boundary t2 = 1",
            stacklevel=2,
        )
        return 1.0
    return t1 / math.sqrt(1.0 - t1 * t1)


def best_split_concurrence(t1: float, t2: float, s: float) -> float:
    """The largest closed-form concurrence over real input pairs with
    ``beta * delta = s``: a scan of log(beta) over (log s, 0), with
    ``delta = s / beta``, narrowed around its best point until the step is
    below 1e-12 of the range."""
    lo, hi = math.log(s), 0.0
    best = -1.0
    while hi - lo > 1e-12 * -math.log(s):
        logs = np.linspace(lo, hi, 101)[1:-1]
        pairs = [InputPair(math.sqrt(1.0 - b * b), b, math.sqrt(1.0 - s * s / (b * b)), s / b)
                 for b in np.exp(logs).tolist()]
        c = concurrence_closed_form(pairs, t1, t2)
        k = int(np.argmax(c))
        best = max(best, float(c[k]))
        step = logs[1] - logs[0]
        lo, hi = logs[k] - step, logs[k] + step
    return best


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


def naive_values(column):
    """A column as a list of Python values, row by row.

    A numpy array gives its ``tolist()``. An axis column gives its texts,
    each repeated ``inner`` times, that run repeated until the column is
    full: the repetition rule itself, not the writer's index arithmetic. A
    list, such as a reference built one value at a time, is kept as it is.
    """
    if isinstance(column, np.ndarray):
        return column.tolist()
    if isinstance(column, AxisColumn):
        run = [text.decode("ascii") for text in column.texts.tolist() for _ in range(column.inner)]
        return (run * -(-len(column) // len(run)))[:len(column)]
    return column


def naive_write_csv(fh, columns):
    """Row-at-a-time CSV writer oracle: one ``%s`` template per row.

    ``%s`` formats with ``str``, so every field comes out as ``str(value)``
    of the column's Python values (``naive_values``); the chunked writer in
    ``recipes`` must produce the same bytes.
    """
    fh.write(",".join(columns) + "\n")
    line = ",".join(["%s"] * len(columns)) + "\n"
    values = map(naive_values, columns.values())
    fh.writelines(line % row for row in zip(*values))


def bell_phi_plus(labels=("a", "b")) -> PureState:
    return PureState(labels, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def bell_psi(sign=+1, phase=0.0, labels=("a", "b")) -> PureState:
    amps = np.array([0.0, 1.0, sign * np.exp(1j * phase), 0.0]) / np.sqrt(2.0)
    return PureState(labels, amps)


# -------------------------------------------------------------- strategies

def finite_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def normalized_amp_pairs(st_draw):
    """One normalized complex amplitude pair (a, b), bounded away from 0/1."""
    re1 = st_draw(finite_floats(-1.0, 1.0))
    im1 = st_draw(finite_floats(-1.0, 1.0))
    re2 = st_draw(finite_floats(-1.0, 1.0))
    im2 = st_draw(finite_floats(-1.0, 1.0))
    z1, z2 = complex(re1, im1), complex(re2, im2)
    norm = np.sqrt(abs(z1) ** 2 + abs(z2) ** 2)
    if norm < 1e-2:
        z1, z2, norm = 1.0, 1.0, np.sqrt(2.0)
    return z1 / norm, z2 / norm


@st.composite
def input_pairs(st_draw):
    from swapsim import InputPair

    a, b = st_draw(normalized_amp_pairs())
    g, d = st_draw(normalized_amp_pairs())
    return InputPair(a, b, g, d)

