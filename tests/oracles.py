"""Hypothesis strategies and independent test oracles shared by the tests.

The oracles here deliberately avoid the library's vectorized paths:
partial traces and projections are re-derived with explicit index loops
so the fast implementations are checked against something dumber.
"""

import numpy as np
from hypothesis import strategies as st

from swapsim import DensityMatrix, PureState


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
    n = rho.num_modes
    proj_pos = [i for i, lab in enumerate(rho.labels) if lab in set(ket.labels)]
    keep = [i for i in range(n) if i not in proj_pos]
    ket = ket.reorder(tuple(rho.labels[i] for i in proj_pos))
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

