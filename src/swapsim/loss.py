"""Pure-loss channel on one photon-number qubit mode.

A channel with amplitude transmittivity t (power transmission t^2) acts
on a photon-number qubit as amplitude damping. ``dilate`` models it as a
beamsplitter-style unitary that moves the lost photon into a fresh
environment mode of the ket; the brute-force pipeline uses it. It moves
amplitudes by index arithmetic alone, through the memoised label plan
``states._split`` that ``project`` and ``partial_trace`` read, at any
mode position and with no strided view of its own. The
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

from .states import Label, LabelError, PureState, _split

__all__ = ["LossChannel", "dilate"]


@dataclass(frozen=True)
class LossChannel:
    """Loss with real amplitude transmittivity t in [0, 1]; r = sqrt(1 - t^2).

    ``r`` is derived from ``t`` when the channel is built, and the two
    floats are all a channel holds; equality, hashing and the repr see
    ``t`` alone.
    """

    t: float
    r: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = float(self.t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"amplitude transmittivity t = {t} outside [0, 1]")
        self.__dict__.update(t=t, r=math.sqrt(max(0.0, 1.0 - t * t)))


def dilate(psi: PureState, mode: Label, env: Label, ch: LossChannel) -> PureState:
    """Unitary model of the loss: couple ``mode`` to a fresh vacuum mode.

    A single-photon amplitude a on ``mode`` splits into a*t (photon kept,
    environment in vacuum) plus a*r (photon moved to the environment).
    The environment mode is appended at the end of the register, and the
    output stays normalized because t^2 + r^2 = 1: the dilation is an
    isometry, so the output carries the squared norm its input was checked
    with instead of summing its amplitudes again.

    The input's label plan gives its (mode, rest) rows and the output's
    its ((mode, environment), rest) rows, with the environment bit least
    significant; each output row is one index scatter of an input row,
    the photon row multiplied by ``ch.r`` for the lost photon and by
    ``ch.t`` for the kept one.

    The last dilation of a ket is kept with it (the ket is immutable), in
    one slot ``(ch, mode, env, out)``. A call that repeats it with the same
    channel object returns that same ``out``, after the same label and
    normalisation checks as any call; any other call recomputes and takes
    the slot. The channel is matched by identity, not equality:
    ``LossChannel(-0.0)`` equals ``LossChannel(0.0)``, but their
    dilations differ in the sign of zero.
    """
    if env in psi.labels:
        raise LabelError(f"environment label {env!r} collides with {psi.labels!r}")
    if mode not in psi.labels:
        raise LabelError(f"mode {mode!r} not in register {psi.labels!r}")
    psi._require_normalized()
    kept = psi.__dict__.get("_dilation")
    if kept is not None and kept[0] is ch and kept[1] == mode and kept[2] == env:
        return kept[3]
    _, src = _split(psi.labels, mode)
    _, dst = _split(psi.labels + (env,), (mode, env))
    out = np.zeros(2 * psi.amps.size, dtype=complex)
    photon = psi.amps[src[1]]
    out[dst[0]] = psi.amps[src[0]]               # no photon: untouched
    out[dst[1]] = ch.r * photon                  # photon lost to the environment
    out[dst[2]] = ch.t * photon                  # photon kept
    out = PureState._of(psi.labels + (env,), out, psi.norm2)
    # straight into the instance dict: the frozen dataclass refuses setattr
    psi.__dict__["_dilation"] = (ch, mode, env, out)
    return out
