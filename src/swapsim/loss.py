"""Pure-loss channel on one photon-number qubit mode.

A channel with amplitude transmittivity t (power transmission t^2) acts
on a photon-number qubit as amplitude damping. Two independent
implementations live here: ``dilate``, a beamsplitter-style unitary that
moves the lost photon into a fresh environment mode of the ket (the
brute-force pipeline uses it), and ``apply_loss``, Kraus-operator action
on a density matrix, kept as the independent loss oracle. Tracing the
environment out of the dilated ket must give the Kraus result, and the
test suite holds the two routes to 1e-12 entrywise.

Throughout the package t is the AMPLITUDE transmittivity; the power
transmission is t^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, Label, LabelError, PureState

__all__ = ["LossChannel", "kraus_ops", "apply_loss", "dilate"]


@dataclass(frozen=True)
class LossChannel:
    """Loss with real amplitude transmittivity t in [0, 1]; r = sqrt(1 - t^2)."""

    t: float

    def __post_init__(self):
        t = float(self.t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"amplitude transmittivity t = {t} outside [0, 1]")
        object.__setattr__(self, "t", t)

    @property
    def r(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.t * self.t))


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
    right = np.eye(2 ** (rho.num_modes - 1 - pos))
    out = np.zeros_like(rho.entries)
    for k in kraus_ops(ch):
        full = np.kron(np.kron(left, k), right)
        out = out + full @ rho.entries @ full.conj().T
    return DensityMatrix(rho.labels, out, weight=rho.weight)


def dilate(psi: PureState, mode: Label, env: Label, ch: LossChannel) -> PureState:
    """Unitary model of the loss: couple ``mode`` to a fresh vacuum mode.

    A single-photon amplitude a on ``mode`` splits into a*t (photon kept,
    environment in vacuum) plus a*r (photon moved to the environment).
    The environment mode is appended at the end of the register, and the
    output stays normalized because t^2 + r^2 = 1.
    """
    if env in psi.labels:
        raise LabelError(f"environment label {env!r} collides with {psi.labels!r}")
    if mode not in psi.labels:
        raise LabelError(f"mode {mode!r} not in register {psi.labels!r}")
    if not psi.is_normalized(atol=1e-9):
        raise ValueError(f"input state must be normalized (norm^2 = {psi.norm2})")
    n = psi.num_modes
    bit = 1 << (n - 1 - psi.labels.index(mode))
    idx = np.arange(2 ** n)
    occupied = (idx & bit) != 0
    out = np.zeros(2 ** (n + 1), dtype=complex)
    # environment bit is appended as the least-significant position
    out[idx << 1] = np.where(occupied, ch.t, 1.0) * psi.amps
    src = idx[occupied]
    out[((src ^ bit) << 1) | 1] = ch.r * psi.amps[src]
    return PureState(psi.labels + (env,), out)
