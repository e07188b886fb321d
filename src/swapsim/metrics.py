"""Entanglement and interference figures of merit for the heralded state.

Concurrence comes in two independent flavors that must agree: the
general spin-flip construction for any two-qubit density matrix, and the
closed form for the swap output,

    C = 2 |alpha beta gamma delta t1 t2| / norm.

Fringe scans model the joint verification measurement onto
(|01> +/- e^{i theta} |10>) / sqrt(2); their contrast is the visibility
2 |rho23| / (rho22 + rho33).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .protocol import MAX_ENTANGLED_PAIR, WEIGHT_EPS, BsmSetting, InputPair, success_probability
from .states import ATOL, DensityMatrix

__all__ = [
    "FringeScan",
    "VisibilityReport",
    "concurrence_wootters",
    "concurrence_closed_form",
    "optimal_t2",
    "bell_fidelity",
    "fringe_scan",
    "visibility",
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


def _two_qubit_matrix(rho) -> np.ndarray:
    """Accept a DensityMatrix or a bare 4x4 array; require unit trace."""
    m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a two-qubit (4x4) matrix, got shape {m.shape}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"two-qubit state must be normalized (trace = {tr})")
    return m


def concurrence_wootters(rho) -> float:
    """Concurrence of an arbitrary two-qubit state via the spin-flip product.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the decreasing square
    roots of the eigenvalues of rho (Y x Y) rho* (Y x Y). For accuracy the
    l_i are computed as the singular values of A^T (Y x Y) A with
    rho = A A^dag: that matrix product is similar to the spin-flip product
    but avoids taking square roots of roundoff-sized eigenvalues.
    """
    m = _two_qubit_matrix(rho)
    if np.max(np.abs(m - m.conj().T)) > 1e-10:
        raise ValueError("input matrix is not Hermitian")
    ev, vec = np.linalg.eigh((m + m.conj().T) / 2.0)
    if ev[0] < -1e-10:
        raise ValueError(
            f"input matrix is not positive semidefinite (min eigenvalue {ev[0]:.3e})"
        )
    # tiny negative eigenvalues are roundoff; clip before the square root
    a = vec * np.sqrt(np.clip(ev, 0.0, None))
    lam = np.linalg.svd(a.T @ _YY @ a, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_closed_form(pair: InputPair, t1, t2):
    """Concurrence of the heralded state, directly from the input amplitudes.

    C = 2 |alpha beta gamma delta| t1 t2 / norm. Accepts scalar or array
    t1, t2 (broadcast), which the argmax grid search relies on.
    """
    norm = success_probability(pair, t1, t2)
    if np.any(np.asarray(norm) < WEIGHT_EPS):
        raise ValueError("degenerate inputs: heralding probability is zero")
    num = 2.0 * abs(pair.alpha * pair.beta * pair.gamma * pair.delta) * t1 * t2
    c = num / norm
    return float(c) if np.isscalar(c) else c


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_argmax(f, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = f(c)
    return 0.5 * (a + b)


def optimal_t2(t1: float, tol: float = 1e-8) -> float:
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

    def f(x):
        return concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, x)

    best = _golden_argmax(f, 1e-6, 1.0, tol)
    # safety net in case the objective were not unimodal: coarse grid scan
    grid = np.linspace(1e-4, 1.0, 10001)
    on_grid = concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, grid)
    g = float(grid[int(np.argmax(on_grid))])
    if f(g) > f(best) + 1e-12:
        best = _golden_argmax(f, max(g - 1e-4, 1e-6), min(g + 1e-4, 1.0), tol)
    return float(best)


def _bell_ket(sign: int, phase: float) -> np.ndarray:
    return np.array([0.0, 1.0, sign * np.exp(1j * phase), 0.0]) / math.sqrt(2.0)


def bell_fidelity(rho, sign: int = +1, phase: float = 0.0) -> float:
    """Overlap <Psi|rho|Psi> with (|01> + sign e^{i phase} |10>)/sqrt(2)."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    m = _two_qubit_matrix(rho)
    k = _bell_ket(sign, phase)
    return float(np.real(k.conj() @ m @ k))


@dataclass(frozen=True)
class FringeScan:
    """Verification-projector probabilities over a phase grid.

    ``p_plus[i]`` and ``p_minus[i]`` are the probabilities of the two
    verification outcomes at phase ``thetas[i]``; their sum is phase
    independent because the projectors partition the one-photon subspace.
    """

    setting: BsmSetting | None
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
    """Fringe contrast, the extremal phases, and how they were obtained."""

    v: float
    theta_max: float
    theta_min: float
    method: str
    sigma: float | None = None


def fringe_scan(rho, thetas, setting: BsmSetting | None = None) -> FringeScan:
    """Scan <Psi(theta)|rho|Psi(theta)> for both verification signs.

    p_pm(theta) = (rho22 + rho33)/2 +/- Re(e^{i theta} rho23).
    """
    m = _two_qubit_matrix(rho)
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0:
        raise ValueError("phase grid must be nonempty")
    base = 0.5 * (m[1, 1].real + m[2, 2].real)
    osc = np.real(np.exp(1j * thetas) * m[1, 2])
    return FringeScan(setting, thetas, base + osc, base - osc)


def _require_full_period(thetas: np.ndarray):
    n = thetas.size
    span = float(thetas[-1] - thetas[0])
    if n < 3 or span < 0.9 * TWO_PI * (n - 1) / n:
        raise ValueError("phase grid must cover a full period")


def visibility(scan: FringeScan, method: str = "analytic") -> VisibilityReport:
    """Fringe visibility of a noiseless scan.

    ``analytic`` recovers the single-harmonic form p = c + Re(e^{i theta}
    rho23) exactly from the samples and returns 2|rho23| / (2c);
    ``fit`` reports the sample contrast (max - min) / (max + min). On
    scans whose grid contains the extremal phases the two agree to 1e-9.
    """
    denom = float(np.mean(scan.p_plus + scan.p_minus))
    if denom < SIGNAL_EPS:
        raise ValueError("no signal: the one-photon populations vanish")
    _require_full_period(scan.thetas)
    if method == "analytic":
        design = np.column_stack(
            [np.ones_like(scan.thetas), np.cos(scan.thetas), np.sin(scan.thetas)]
        )
        (_, u, v), *_ = np.linalg.lstsq(design, scan.p_plus, rcond=None)
        rho23 = u - 1j * v
        vis = 2.0 * abs(rho23) / denom
        theta_max = float(-np.angle(rho23)) % TWO_PI if abs(rho23) > 0 else 0.0
        return VisibilityReport(
            float(vis), theta_max, (theta_max + math.pi) % TWO_PI, "analytic"
        )
    if method == "fit":
        hi = int(np.argmax(scan.p_plus))
        lo = int(np.argmin(scan.p_plus))
        pmax, pmin = float(scan.p_plus[hi]), float(scan.p_plus[lo])
        return VisibilityReport(
            (pmax - pmin) / (pmax + pmin),
            float(scan.thetas[hi]),
            float(scan.thetas[lo]),
            "fit",
        )
    raise ValueError(f"unknown method {method!r}")


def visibility_analytic(rho) -> VisibilityReport:
    """Visibility straight from the state: V = 2|rho23| / (rho22 + rho33)."""
    m = _two_qubit_matrix(rho)
    denom = m[1, 1].real + m[2, 2].real
    if denom < SIGNAL_EPS:
        raise ValueError("no signal: the one-photon populations vanish")
    r23 = m[1, 2]
    theta_max = float(-np.angle(r23)) % TWO_PI if abs(r23) > 0 else 0.0
    return VisibilityReport(
        float(2.0 * abs(r23) / denom),
        theta_max,
        (theta_max + math.pi) % TWO_PI,
        "analytic",
    )
