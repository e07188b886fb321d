"""Entanglement swapping with photon-number-encoded qubits.

Alice and Bob each prepare a two-mode entangled pair

    |psi>_A = alpha|00> + beta|11>   on (A, C1),
    |psi>_B = gamma|00> + delta|11>  on (C2, B),

send the flying modes C1, C2 through lossy channels to a middle station,
and keep A, B. The station projects (C1, C2) onto an entangled or a
separable two-mode ket; a successful entangling outcome leaves Alice and
Bob sharing a two-qubit state.

The module computes that state two independent ways: the brute-force
pipeline and a closed form. The brute force dilates each loss onto an
environment mode (E1, E2), projects the flying modes of the resulting
ket, then traces the environments out; projection and trace act on
disjoint modes, so this order gives the same state as tracing first,
without forming the density matrix of the whole register. The two
routes must agree entrywise to 1e-12; the heralding probability of the
closed form must equal the summed projection weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss import LossChannel, dilate
from .states import DensityMatrix, PureState, partial_trace, project, tensor

__all__ = [
    "A",
    "B",
    "C1",
    "C2",
    "E1",
    "E2",
    "InputPair",
    "MAX_ENTANGLED_PAIR",
    "BsmSetting",
    "SwapOutcome",
    "build_inputs",
    "propagate",
    "bsm",
    "swap",
    "closed_form_rho",
    "success_probability",
    "optimal_inputs",
    "asymptotic_state",
    "random_input_pair",
]

# conventional register labels: stay-at-home qubits, flying modes, environments
A, B = "A", "B"
C1, C2 = "C1", "C2"
E1, E2 = "E1", "E2"

# below this, one heralding outcome is treated as impossible; each sign
# has probability norm / 2, so closed forms reject norm < 2 * WEIGHT_EPS
WEIGHT_EPS = 1e-15


@dataclass(frozen=True)
class InputPair:
    """Amplitudes (alpha, beta) of Alice's pair and (gamma, delta) of Bob's.

    Both pairs must be normalized: |alpha|^2 + |beta|^2 = 1 and
    |gamma|^2 + |delta|^2 = 1, each to within 1e-12.
    """

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        na = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        nb = abs(self.gamma) ** 2 + abs(self.delta) ** 2
        if abs(na - 1.0) > 1e-12 or abs(nb - 1.0) > 1e-12:
            raise ValueError(
                f"input amplitudes must be normalized per pair "
                f"(got {na!r} and {nb!r})"
            )


MAX_ENTANGLED_PAIR = InputPair(
    math.sqrt(0.5), math.sqrt(0.5), math.sqrt(0.5), math.sqrt(0.5)
)


@dataclass(frozen=True)
class BsmSetting:
    """Middle-station measurement setting: X+-, Y+- or Z+-.

    The X and Y settings (``kind`` "x", "y") project the flying modes onto
    (|01> + sign * e^{i phase} |10>) / sqrt(2) with phase 0 and pi/2.
    ``separable`` projects onto |01> or |10> (the Z+ / Z- settings),
    which heralds no entanglement.
    """

    kind: str
    sign: int = +1
    which: str = "01"

    def __post_init__(self):
        if self.kind not in ("x", "y", "separable"):
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.kind != "separable":
            if self.sign not in (+1, -1):
                raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        else:
            if self.which not in ("01", "10"):
                raise ValueError(f"separable outcome must be '01' or '10', got {self.which!r}")

    @classmethod
    def x(cls, sign: int = +1) -> "BsmSetting":
        return cls("x", sign=sign)

    @classmethod
    def y(cls, sign: int = +1) -> "BsmSetting":
        return cls("y", sign=sign)

    @classmethod
    def z(cls, which: str = "01") -> "BsmSetting":
        return cls("separable", which=which)

    @property
    def name(self) -> str:
        if self.kind == "separable":
            return "Z+" if self.which == "01" else "Z-"
        return f"{self.kind.upper()}{'+' if self.sign > 0 else '-'}"

    def projector_ket(self, labels: tuple[str, str] = (C1, C2)) -> PureState:
        amps = np.zeros(4, dtype=complex)
        if self.kind != "separable":
            # e^{i pi/2} as numpy rounds it, not 1j: the golden outputs pin it
            phase = 0.0 if self.kind == "x" else math.pi / 2.0
            amps[1] = 1.0 / math.sqrt(2.0)
            amps[2] = self.sign * np.exp(1j * phase) / math.sqrt(2.0)
        else:
            amps[1 if self.which == "01" else 2] = 1.0
        return PureState(labels, amps)


@dataclass(frozen=True)
class SwapOutcome:
    """Heralded result: normalized two-qubit state and its absolute probability."""

    rho_ab: DensityMatrix
    p_success: float


def build_inputs(pair: InputPair) -> PureState:
    """Joint input ket on (A, C1, C2, B) before any transmission."""
    alice = PureState((A, C1), np.array([pair.alpha, 0.0, 0.0, pair.beta]))
    bob = PureState((C2, B), np.array([pair.gamma, 0.0, 0.0, pair.delta]))
    return tensor(alice, bob)


def _as_channel(ch) -> LossChannel:
    return ch if isinstance(ch, LossChannel) else LossChannel(float(ch))


def propagate(psi: PureState, ch1, ch2) -> PureState:
    """Send C1 through ch1 and C2 through ch2 by unitary dilation.

    Returns the ket on (A, C1, C2, B, E1, E2), where E1 and E2 hold the
    photons the channels lost. Tracing E1, E2 out must give what the
    Kraus route gives, which the tests hold to 1e-12.
    """
    ch1, ch2 = _as_channel(ch1), _as_channel(ch2)
    return dilate(dilate(psi, C1, E1, ch1), C2, E2, ch2)


def bsm(psi: PureState, setting: BsmSetting) -> SwapOutcome:
    """Project the flying modes onto the setting's ket and herald the outcome.

    ``psi`` is the normalized ket from ``propagate``. The projection
    leaves a ket on (A, B, E1, E2); tracing the environments out gives
    the normalized state on (A, B) and the absolute probability of this
    particular outcome.
    """
    if C1 not in psi.labels or C2 not in psi.labels:
        raise ValueError(f"state on {psi.labels!r} is missing the flying modes")
    if not psi.is_normalized(atol=1e-9):
        raise ValueError(f"input state must be normalized (norm^2 = {psi.norm2})")
    out = partial_trace(project(psi, setting.projector_ket()), (E1, E2))
    if out.weight < WEIGHT_EPS:
        raise ValueError(
            f"impossible outcome: heralding probability {out.weight:.3e} for "
            f"setting {setting.name}"
        )
    return SwapOutcome(out.normalized(), out.weight)


def swap(pair: InputPair, ch1, ch2, setting: BsmSetting) -> SwapOutcome:
    """Full brute-force pipeline: build inputs, propagate, measure."""
    return bsm(propagate(build_inputs(pair), ch1, ch2), setting)


def _rho_entries(pair: InputPair, t1, t2):
    a, b, g, d = pair.alpha, pair.beta, pair.gamma, pair.delta
    # t * t, not t ** 2: on a Python float ** calls libm pow, one ulp off at times
    r22 = abs(a * d) ** 2 * (t2 * t2)
    r33 = abs(b * g) ** 2 * (t1 * t1)
    r44 = abs(b * d) ** 2 * (t1 * t1 * (1.0 - t2 * t2) + t2 * t2 * (1.0 - t1 * t1))
    r23 = a * np.conj(b) * np.conj(g) * d * t1 * t2
    return r22, r33, r44, r23


def closed_form_rho(
    pair: InputPair, t1: float, t2: float, sign: int = +1
) -> tuple[np.ndarray, float]:
    """Closed form of the post-selected state for an entangling X outcome.

    Returns the normalized 4x4 matrix on (A, B) in the basis
    |00>, |01>, |10>, |11> together with the normalization constant

        norm = |alpha delta|^2 t2^2 + |beta gamma|^2 t1^2 + rho44,
        rho44 = |beta delta|^2 (t1^2 (1 - t2^2) + t2^2 (1 - t1^2)),

    which is the total heralding probability summed over both signs (each
    sign occurs with probability norm / 2).
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    r22, r33, r44, r23 = _rho_entries(pair, t1, t2)
    norm = r22 + r33 + r44
    if norm < 2.0 * WEIGHT_EPS:
        raise ValueError("degenerate inputs: heralding probability is zero")
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = r22
    rho[2, 2] = r33
    rho[3, 3] = r44
    rho[1, 2] = sign * r23
    rho[2, 1] = sign * np.conj(r23)
    return rho / norm, float(norm)


def success_probability(pair: InputPair, t1, t2):
    """Total probability of an entangling heralding event, both signs summed.

    Equals the sum of the two per-sign projection weights of the
    brute-force pipeline. Accepts scalar or array t1, t2.
    """
    r22, r33, r44, _ = _rho_entries(pair, t1, t2)
    total = r22 + r33 + r44
    return float(total) if np.isscalar(total) else total


def optimal_inputs(t1: float, t2: float, epsilon: float) -> InputPair:
    """Input amplitudes that make the heralded state maximally entangled.

    Balances the two surviving amplitudes, |alpha delta t2| = |beta gamma
    t1|, by fixing the ratio |beta gamma| / |alpha delta| = t2 / t1, with
    the free overall photon-pair scale chosen as

        beta * delta = epsilon^2 * 2 t1 t2 / (t1^2 + t2^2).

    All returned amplitudes are real and nonnegative. Shrinking epsilon
    suppresses the double-emission term and drives the heralded state
    toward a pure Bell state at the cost of heralding probability.
    """
    if not (0.0 < t1 <= 1.0 and 0.0 < t2 <= 1.0):
        raise ValueError(f"need 0 < t1, t2 <= 1, got t1 = {t1}, t2 = {t2}")
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in (0, 0.5], got {epsilon}")
    s = epsilon ** 2 * 2.0 * t1 * t2 / (t1 ** 2 + t2 ** 2)  # = beta * delta
    # checked before forming t2 / t1: every ratio that would overflow lands here
    if s * s == 0.0:
        raise ValueError("degenerate inputs: photon-pair scale underflows to zero")
    k = t2 / t1
    # delta^2 solves  k^2 x^2 + s^2 (1 - k^2) x - s^2 = 0  (stable branch)
    aa = k * k
    bb = s * s * (1.0 - k * k)
    cc = -s * s
    disc = math.sqrt(bb * bb - 4.0 * aa * cc)
    if bb >= 0.0:
        delta2 = 2.0 * (-cc) / (bb + disc)
    else:
        delta2 = (-bb + disc) / (2.0 * aa)
    delta = math.sqrt(delta2)
    beta = s / delta
    if beta > math.sqrt(0.5) + 1e-12 or delta > math.sqrt(0.5) + 1e-12:
        raise ValueError(
            f"epsilon = {epsilon} too large for t1 = {t1}, t2 = {t2}: "
            f"pair amplitudes ({beta:.4f}, {delta:.4f}) exceed 1/sqrt(2)"
        )
    alpha = math.sqrt(1.0 - beta * beta)
    gamma = math.sqrt(1.0 - delta2)
    return InputPair(alpha, beta, gamma, delta)


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
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
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


def random_input_pair(rng: np.random.Generator) -> InputPair:
    """Haar-ish random complex amplitudes, normalized per pair."""
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    na = math.sqrt(abs(z[0]) ** 2 + abs(z[1]) ** 2)
    nb = math.sqrt(abs(z[2]) ** 2 + abs(z[3]) ** 2)
    return InputPair(z[0] / na, z[1] / na, z[2] / nb, z[3] / nb)
