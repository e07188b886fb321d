"""Pure-loss channel on one photon-number qubit mode.

A channel with amplitude transmittivity t (power transmission t^2) acts
on a photon-number qubit as amplitude damping. ``dilate`` models it as a
beamsplitter-style unitary that moves the lost photon into a fresh
environment mode of the ket; the brute-force pipeline uses it. The
independent Kraus route, which acts on a density matrix, is a test
oracle in ``tests/oracles.py``: tracing the environment out of the
dilated ket must give the Kraus result, and the test suite holds the two
routes to 1e-12 entrywise.

Throughout the package t is the AMPLITUDE transmittivity; the power
transmission is t^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import Label, LabelError, PureState

__all__ = ["LossChannel", "dilate"]


@dataclass(frozen=True)
class LossChannel:
    """Loss with real amplitude transmittivity t in [0, 1]; r = sqrt(1 - t^2).

    ``r`` is derived from ``t`` when the channel is built, so equality,
    hashing and the repr see ``t`` alone.
    """

    t: float
    r: float = field(init=False, repr=False, compare=False)
    # (r, t) as a read-only complex array of shape (2, 1, 1): ``dilate``
    # multiplies a ket's photon amplitudes by both in one call
    _factors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = float(self.t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"amplitude transmittivity t = {t} outside [0, 1]")
        r = math.sqrt(max(0.0, 1.0 - t * t))
        factors = np.array((r, t), dtype=complex)
        factors.setflags(write=False)
        self.__dict__.update(t=t, r=r, _factors=factors.reshape(2, 1, 1))


def dilate(psi: PureState, mode: Label, env: Label, ch: LossChannel) -> PureState:
    """Unitary model of the loss: couple ``mode`` to a fresh vacuum mode.

    A single-photon amplitude a on ``mode`` splits into a*t (photon kept,
    environment in vacuum) plus a*r (photon moved to the environment).
    The environment mode is appended at the end of the register, and the
    output stays normalized because t^2 + r^2 = 1: the dilation is an
    isometry, so the output carries the squared norm its input was checked
    with instead of summing its amplitudes again.
    """
    if env in psi.labels:
        raise LabelError(f"environment label {env!r} collides with {psi.labels!r}")
    if mode not in psi.labels:
        raise LabelError(f"mode {mode!r} not in register {psi.labels!r}")
    psi._require_normalized()
    pos = psi.labels.index(mode)
    # (before, mode, after) -> (before, mode, after, environment): the
    # environment bit is appended as the least-significant position
    amps = psi.amps.reshape(2 ** pos, 2, -1)
    photon = amps[:, 1, :]
    out = np.zeros(amps.shape + (2,), dtype=complex)
    out[:, 0, :, 0] = amps[:, 0, :]           # no photon: untouched
    # out[:, 0, :, 1] (photon moved to the environment, times r) and
    # out[:, 1, :, 0] (photon kept, times t) as the two halves of one view,
    # filled by one multiply; the products are those of two separate ones
    before, mode_step, after, env_step = out.strides
    blocks = np.ndarray((2,) + photon.shape, complex, out, env_step,
                        (mode_step - env_step, before, after))
    np.multiply(ch._factors, photon, out=blocks)
    return PureState._of(psi.labels + (env,), out.reshape(-1), psi.norm2)
