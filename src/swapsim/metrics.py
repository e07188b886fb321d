"""Entanglement and interference figures of merit for the heralded state.

Concurrence comes in two independent flavors that must agree: the
general spin-flip construction for any two-qubit density matrix or
stack of them (one body, in which a single state is a stack of one),
and the closed form for the swap output,

    C = 2 |alpha beta gamma delta t1 t2| / norm.

Fringe scans model the joint verification measurement onto
(|01> +/- e^{i theta} |10>) / sqrt(2); their contrast is the visibility
2 |rho23| / (rho22 + rho33), also taken over a stack of states at once.
Every metric first checks that each state has finite entries and unit
trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import (
    Pairs, _check_sign, _entangling, _heralded, _point, _products, success_probability,
)
from .states import ATOL, PSD_MIN_EIG, DensityMatrix

__all__ = [
    "FringeScan",
    "VisibilityReport",
    "concurrence_wootters",
    "concurrence_closed_form",
    "bell_fidelity",
    "fringe_scan",
    "visibility_analytic",
]

TWO_PI = 2.0 * math.pi
SIGNAL_EPS = 1e-15  # below this, the one-photon populations count as no signal

# sigma_y (x) sigma_y, real in the computational basis
_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def _two_qubit_matrix(rho, stack: bool = False) -> np.ndarray:
    """Accept a DensityMatrix or a bare 4x4 array; require finite entries
    and unit trace.

    With ``stack`` true a bare array may also be a stack (..., 4, 4), and
    every member must pass; the first bad member, in C order, raises the
    error a single call on it would raise.
    """
    m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4) or not (stack or m.ndim == 2):
        raise ValueError(f"expected a two-qubit (4x4) matrix, got shape {m.shape}")
    finite = np.isfinite(m).all(axis=(-2, -1))
    tr = m.trace(axis1=-2, axis2=-1)
    ok = finite & (abs(tr - 1.0) <= 1e-9)
    if not ok.all():
        first = np.unravel_index(np.argmin(ok), np.shape(ok))
        if not finite[first]:
            raise ValueError("two-qubit state must have finite entries")
        raise ValueError(f"two-qubit state must be normalized (trace = {complex(tr[first])})")
    return m


def concurrence_wootters(rho) -> float | np.ndarray:
    """Concurrence of an arbitrary two-qubit state via the spin-flip product.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the decreasing square
    roots of the eigenvalues of rho (Y x Y) rho* (Y x Y). For accuracy the
    l_i are computed as the singular values of A^T (Y x Y) A with
    rho = A A^dag: that matrix product is similar to the spin-flip product
    but avoids taking square roots of roundoff-sized eigenvalues.

    ``rho`` is one state (a DensityMatrix or a 4x4 array), which gives a
    float, or a stack of shape (..., 4, 4), which gives an array of shape
    (...). There is one body: the states run as a stack (N, 4, 4), through
    one stacked ``eigh`` and one stacked ``svd``, which treat each member
    exactly as a lone call would. Every member must pass the finiteness,
    trace, Hermiticity and positivity checks; the first that fails, in C
    order, raises the error a single call on it would raise.
    """
    m = _two_qubit_matrix(rho, stack=True)
    shape = m.shape[:-2]
    m = m.reshape(-1, 4, 4)
    h = m.conj().transpose(0, 2, 1)
    if np.any(np.max(np.abs(m - h), axis=(1, 2)) > 1e-10):
        raise ValueError("input matrix is not Hermitian")
    ev, vec = np.linalg.eigh((m + h) / 2.0)
    bad = np.flatnonzero(ev[:, 0] < PSD_MIN_EIG)
    if bad.size:
        raise ValueError(
            f"input matrix is not positive semidefinite (min eigenvalue {ev[bad[0], 0]:.3e})"
        )
    # tiny negative eigenvalues are roundoff; clip before the square root
    a = vec * np.sqrt(np.clip(ev, 0.0, None))[:, None, :]
    lam = np.linalg.svd(a.transpose(0, 2, 1) @ _YY @ a, compute_uv=False)
    c = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    return _point(c.reshape(shape))


def concurrence_closed_form(pair: Pairs, t1, t2):
    """Concurrence of the heralded state, directly from the input amplitudes.

    C = 2 |alpha beta gamma delta| t1 t2 / norm. ``pair`` (one
    ``InputPair``, or a sequence of them as an axis), ``t1`` and ``t2``
    broadcast as in ``closed_form_rho``, each member equal bit for bit to
    the call at its point alone; a lone point gives a float.
    """
    norm = success_probability(pair, t1, t2)
    _heralded(norm)
    (abgd2,) = _products(pair, 4)
    return _point(abgd2 * t1 * t2 / norm)


def bell_fidelity(rho, sign: int = +1, phase: float = 0.0) -> float:
    """Overlap <Psi|rho|Psi> with (|01> + sign e^{i phase} |10>)/sqrt(2)."""
    _check_sign(sign)
    m = _two_qubit_matrix(rho)
    k = np.array(_entangling(sign, phase))
    return float(np.real(k.conj() @ m @ k))


@dataclass(frozen=True)
class FringeScan:
    """Verification-projector probabilities over a phase grid.

    ``p_plus[i]`` and ``p_minus[i]`` are the probabilities of the two
    verification outcomes at phase ``thetas[i]``; their sum is phase
    independent because the projectors partition the one-photon subspace.
    """

    thetas: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        p_plus = np.asarray(self.p_plus, dtype=float)
        p_minus = np.asarray(self.p_minus, dtype=float)
        if thetas.ndim != 1 or thetas.size == 0:
            raise ValueError("phase grid must be a nonempty 1-d array")
        if np.any(np.diff(thetas) <= 0.0):
            raise ValueError("phase grid must be strictly increasing")
        if thetas[0] < 0.0 or thetas[-1] >= TWO_PI:
            raise ValueError("phase grid must lie in [0, 2*pi)")
        if p_plus.shape != thetas.shape or p_minus.shape != thetas.shape:
            raise ValueError("probability arrays must match the phase grid")
        for p in (p_plus, p_minus):
            if np.any(p < -ATOL) or np.any(p > 1.0 + ATOL):
                raise ValueError("probabilities must lie in [0, 1]")
        total = p_plus + p_minus
        if np.max(total) - np.min(total) > 1e-12:
            raise ValueError("outcome probabilities must sum to a constant")
        for name, arr in (("thetas", thetas), ("p_plus", p_plus), ("p_minus", p_minus)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class VisibilityReport:
    """A fitted fringe contrast and its 1-sigma uncertainty."""

    v: float
    sigma: float


def fringe_scan(rho, thetas) -> FringeScan:
    """Scan <Psi(theta)|rho|Psi(theta)> for both verification signs.

    p_pm(theta) = (rho22 + rho33)/2 +/- Re(e^{i theta} rho23).
    """
    m = _two_qubit_matrix(rho)
    thetas = np.asarray(thetas, dtype=float)
    base = 0.5 * (m[1, 1].real + m[2, 2].real)
    osc = np.real(np.exp(1j * thetas) * m[1, 2])
    return FringeScan(thetas, base + osc, base - osc)


def visibility_analytic(rho) -> float | np.ndarray:
    """Visibility straight from the state: V = 2|rho23| / (rho22 + rho33).

    One state (a DensityMatrix or a 4x4 array) gives a float, by the
    closed forms' return rule; a stack (..., 4, 4) gives an array of its
    visibilities, bit-identical to per-state calls. Each check runs over
    the whole stack, in the order a single call makes them, and the first
    member that fails one raises the error a single call on it would raise.
    """
    m = _two_qubit_matrix(rho, stack=True)
    denom = m[..., 1, 1].real + m[..., 2, 2].real
    if (denom < SIGNAL_EPS).any():
        raise ValueError("no signal: the one-photon populations vanish")
    # hypot, as abs() of one complex does: numpy's SIMD complex abs rounds
    # differently at times
    r23 = m[..., 1, 2]
    v = 2.0 * np.hypot(r23.real, r23.imag) / denom
    return _point(v)
