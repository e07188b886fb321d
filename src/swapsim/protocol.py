"""Entanglement swapping with photon-number-encoded qubits.

Alice and Bob each prepare a two-mode entangled pair

    |psi>_A = alpha|00> + beta|11>   on (A, C1),
    |psi>_B = gamma|00> + delta|11>  on (C2, B),

send the flying modes C1, C2 through lossy channels to a middle station,
and keep A, B. The station projects (C1, C2) onto one of six kets, which
``bsm`` and ``swap`` take by name from ``SETTINGS``: the entangling X+,
X-, Y+, Y- and the separable Z+, Z-. A successful entangling outcome
leaves Alice and Bob sharing a two-qubit state.

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
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

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
    "SETTINGS",
    "SwapOutcome",
    "build_inputs",
    "propagate",
    "bsm",
    "swap",
    "closed_form_rho",
    "success_probability",
    "optimal_inputs",
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

    The amplitude products the closed forms read are formed once, when
    the pair is built; equality, hashing and the repr see the four
    amplitudes alone.
    """

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    # |alpha delta|^2, |beta gamma|^2, |beta delta|^2,
    # alpha conj(beta) conj(gamma) delta and 2 |alpha beta gamma delta|
    _products: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        g, d = complex(self.gamma), complex(self.delta)
        # straight into the instance dict: the frozen dataclass refuses setattr
        self.__dict__.update(alpha=a, beta=b, gamma=g, delta=d)
        na = abs(a) ** 2 + abs(b) ** 2
        nb = abs(g) ** 2 + abs(d) ** 2
        # also refuses NaN, which fails every comparison
        if not (abs(na - 1.0) <= 1e-12 and abs(nb - 1.0) <= 1e-12):
            raise ValueError(
                f"input amplitudes must be normalized per pair "
                f"(got {na!r} and {nb!r})"
            )
        # Python arithmetic, not numpy's, so that a stack of pairs gives each
        # member the bits of its scalar call: abs(z) ** 2 is hypot then libm
        # pow, which differ from numpy's complex abs and x * x at times; the
        # complex conjugate skips numpy's dispatch with the same bits as np.conj
        self.__dict__["_products"] = (
            abs(a * d) ** 2, abs(b * g) ** 2, abs(b * d) ** 2,
            a * b.conjugate() * g.conjugate() * d, 2.0 * abs(a * b * g * d),
        )


MAX_ENTANGLED_PAIR = InputPair(
    math.sqrt(0.5), math.sqrt(0.5), math.sqrt(0.5), math.sqrt(0.5)
)


def _entangling(sign: int, phase: float) -> tuple:
    """The amplitudes of (|01> + sign e^{i phase} |10>) / sqrt(2), a Bell ket."""
    # e^{i pi/2} as numpy rounds it, not 1j: the golden outputs pin it
    return (0.0, 1.0 / math.sqrt(2.0), sign * np.exp(1j * phase) / math.sqrt(2.0), 0.0)


# setting name -> projector ket on (C1, C2), basis |00>, |01>, |10>, |11>,
# built once: X+- and Y+- are (|01> +- e^{i phase} |10>) / sqrt(2) with
# phase 0 and pi/2; the separable Z+ and Z- are |01> and |10>
SETTINGS = MappingProxyType({
    name: PureState((C1, C2), np.array(amps, dtype=complex)) for name, amps in (
        ("X+", _entangling(+1, 0.0)),
        ("X-", _entangling(-1, 0.0)),
        ("Y+", _entangling(+1, math.pi / 2.0)),
        ("Y-", _entangling(-1, math.pi / 2.0)),
        ("Z+", (0.0, 1.0, 0.0, 0.0)),
        ("Z-", (0.0, 0.0, 1.0, 0.0)),
    )
})


def _check_sign(sign) -> None:
    """Reject any sign but +1 and -1; every entry point that takes one calls this.

    An array of signs is held to the same rule member by member, and its
    first bad member, in C order, raises the error a lone sign would.
    """
    for s in sign.ravel().tolist() if isinstance(sign, np.ndarray) else (sign,):
        if s not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {s!r}")


@dataclass(frozen=True)
class SwapOutcome:
    """Heralded result: normalized two-qubit state and its absolute probability."""

    rho_ab: DensityMatrix
    p_success: float


def build_inputs(pair: InputPair) -> PureState:
    """Joint input ket on (A, C1, C2, B) before any transmission.

    Built on the first call and kept with the (immutable) pair, so every
    later call returns that same ket object, and with it the dilations
    ``loss.dilate`` keeps with the ket.
    """
    ket = pair.__dict__.get("_ket")
    if ket is None:
        alice = PureState._of((A, C1), np.array([pair.alpha, 0.0, 0.0, pair.beta], dtype=complex))
        bob = PureState._of((C2, B), np.array([pair.gamma, 0.0, 0.0, pair.delta], dtype=complex))
        # straight into the instance dict: the frozen dataclass refuses setattr
        ket = pair.__dict__["_ket"] = tensor(alice, bob)
    return ket


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


def bsm(psi: PureState, setting: str) -> SwapOutcome:
    """Project the flying modes onto the setting's ket and herald the outcome.

    ``setting`` is a name in ``SETTINGS``, checked before anything else.
    ``psi`` is the normalized ket from ``propagate``. The projection
    leaves a ket on (A, B, E1, E2); tracing the environments out gives
    the normalized state on (A, B) and the absolute probability of this
    particular outcome.
    """
    if not isinstance(setting, str) or setting not in SETTINGS:
        raise ValueError(
            f"unknown measurement setting {setting!r} (choose from {', '.join(SETTINGS)})"
        )
    if C1 not in psi.labels or C2 not in psi.labels:
        raise ValueError(f"state on {psi.labels!r} is missing the flying modes")
    psi._require_normalized()
    out = partial_trace(project(psi, SETTINGS[setting]), (E1, E2))
    if out.weight < WEIGHT_EPS:
        raise ValueError(
            f"impossible outcome: heralding probability {out.weight:.3e} for "
            f"setting {setting}"
        )
    return SwapOutcome(out.normalized(), out.weight)


def swap(pair: InputPair, ch1, ch2, setting: str) -> SwapOutcome:
    """Full brute-force pipeline: build inputs, propagate, measure."""
    return bsm(propagate(build_inputs(pair), ch1, ch2), setting)


Pairs = InputPair | Sequence[InputPair]  # one pair, or a stack of them as an axis


def _products(pair: Pairs, *columns: int) -> list:
    """The kept amplitude products numbered ``columns`` of one pair, or of
    a sequence of pairs one array of each, along the pair axis. A caller
    names the columns it reads, and only those are built."""
    if isinstance(pair, InputPair):
        return [pair._products[k] for k in columns]
    return [np.array([p._products[k] for p in pair]) for k in columns]


def _diagonal(pair: Pairs, t1, t2):
    """rho22, rho33 and rho44 before normalisation; their sum is ``norm``."""
    ad2, bg2, bd2 = _products(pair, 0, 1, 2)
    # t * t, not t ** 2: on a Python float ** calls libm pow, one ulp off at times
    r22 = ad2 * (t2 * t2)
    r33 = bg2 * (t1 * t1)
    r44 = bd2 * (t1 * t1 * (1.0 - t2 * t2) + t2 * t2 * (1.0 - t1 * t1))
    return r22, r33, r44


def _heralded(norm, what: str = "heralding probability") -> None:
    """Reject a total heralding probability that vanishes at any point of ``norm``."""
    if np.any(norm < 2.0 * WEIGHT_EPS):
        raise ValueError(f"degenerate inputs: {what} is zero")


def _point(x):
    """The one return-type rule of the closed forms: a 0-d result is a
    Python float, and any other shape stays the array it is."""
    return float(x) if np.ndim(x) == 0 else x


def closed_form_rho(
    pair: Pairs, t1, t2, sign: int | np.ndarray = +1
) -> tuple[np.ndarray, float | np.ndarray]:
    """Closed form of the post-selected state for an entangling X outcome.

    Returns the normalized 4x4 matrix on (A, B) in the basis
    |00>, |01>, |10>, |11> together with the normalization constant

        norm = |alpha delta|^2 t2^2 + |beta gamma|^2 t1^2 + rho44,
        rho44 = |beta delta|^2 (t1^2 (1 - t2^2) + t2^2 (1 - t1^2)),

    which is the total heralding probability summed over both signs (each
    sign occurs with probability norm / 2).

    ``pair`` is one ``InputPair`` or a sequence of N of them, which acts
    as an array of shape (N,). It, ``t1`` and ``t2`` broadcast to a shape
    ``S``, and ``sign`` (+1, -1 or an array of them) broadcasts to ``S``.
    There is one body: the result is a C-contiguous stack of shape
    ``S + (4, 4)`` and ``norm`` of shape ``S``, each member equal bit for
    bit to the call at its point alone. A lone point is the case ``S = ()``:
    one 4x4 matrix, and ``norm`` as a float. Any point with a vanishing
    heralding probability, or any sign but +1 and -1, rejects the whole
    call.
    """
    _check_sign(sign)
    r22, r33, r44 = _diagonal(pair, t1, t2)
    (cross,) = _products(pair, 3)
    r23 = cross * t1 * t2
    norm = r22 + r33 + r44
    _heralded(norm)
    rho = np.zeros(np.shape(norm) + (4, 4), dtype=complex)
    rho[..., 1, 1] = r22
    rho[..., 2, 2] = r33
    rho[..., 3, 3] = r44
    rho[..., 1, 2] = sign * r23
    rho[..., 2, 1] = sign * r23.conjugate()
    rho /= np.asarray(norm)[..., None, None]
    return rho, _point(norm)


def success_probability(pair: Pairs, t1, t2):
    """Total probability of an entangling heralding event, both signs summed.

    Equals the sum of the two per-sign projection weights of the
    brute-force pipeline. ``pair`` (one pair, or a sequence of them as an
    axis), ``t1`` and ``t2`` broadcast as in ``closed_form_rho``; a lone
    point gives a float.
    """
    r22, r33, r44 = _diagonal(pair, t1, t2)
    return _point(r22 + r33 + r44)


MAX_EPSILON = 0.5  # the largest photon-pair scale ``optimal_inputs`` takes


def optimal_inputs(t1: float, t2: float, epsilon: float) -> InputPair:
    """Loss-matched input amplitudes: a balance rule for unequal channels.

    Balances the two surviving amplitudes, |alpha delta t2| = |beta gamma
    t1|, by fixing the ratio |beta gamma| / |alpha delta| = t2 / t1, with
    the free overall photon-pair scale chosen as

        beta * delta = epsilon^2 * 2 t1 t2 / (t1^2 + t2^2).

    All returned amplitudes are real and nonnegative. Shrinking epsilon
    suppresses the double-emission term and drives the heralded state
    toward a pure Bell state at the cost of heralding probability. The
    rule is optimal only as epsilon -> 0: at a finite epsilon another
    split of the same beta * delta between beta and delta gives a little
    more concurrence (at t1, t2 = 0.05, 0.8 about 1.6e-3 more at
    epsilon = 0.5 and 5e-9 at 0.1, a gap that shrinks as epsilon^8).
    """
    if not (0.0 < t1 <= 1.0 and 0.0 < t2 <= 1.0):
        raise ValueError(f"need 0 < t1, t2 <= 1, got t1 = {t1}, t2 = {t2}")
    if not 0.0 < epsilon <= MAX_EPSILON:
        raise ValueError(f"epsilon must lie in (0, {MAX_EPSILON}], got {epsilon}")
    squares = t1 ** 2 + t2 ** 2
    if squares == 0.0:
        raise ValueError("degenerate inputs: t1^2 + t2^2 underflows to zero")
    s = epsilon ** 2 * 2.0 * t1 * t2 / squares  # = beta * delta
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


def random_input_pair(rng: np.random.Generator) -> InputPair:
    """Haar-ish random complex amplitudes, normalized per pair."""
    n = rng.normal(size=8)
    z = n[:4] + 1j * n[4:]
    # numpy scalars, read once each: their abs, ** and / round as numpy's do
    a, b, g, d = z[0], z[1], z[2], z[3]
    na = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    nb = math.sqrt(abs(g) ** 2 + abs(d) ** 2)
    return InputPair(a / na, b / na, g / nb, d / nb)
