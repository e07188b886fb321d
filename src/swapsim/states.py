"""Dense states over labeled registers of photon-number qubits.

A mode is a single optical mode carrying a logical qubit in the
photon-number basis: |0> is the vacuum, |1> a single photon. Registers
are ordered tuples of string labels and the computational basis is
big-endian over the label sequence, so for labels (A, B) the amplitude
of |ab> sits at index 2a + b.

Kets and density matrices may be subnormalized. ``project`` contracts
part of a ket with a bra and leaves the rest unnormalized, so its
``norm2`` is the post-selection probability; ``partial_trace`` turns a
ket into the density matrix of the modes it keeps, with ``weight`` equal
to the trace. States here are never renormalized behind the caller's
back.

Everything is immutable after construction and every operation is a
pure function, so values can be shared freely between threads (the
library starts one thread of its own, the CSV writer's in ``recipes``,
and hands it text, never a state). The
public constructors copy the array they are given and validate the
labels and shape; states the library builds itself (``tensor``,
``project``, ``partial_trace``, ``DensityMatrix.normalized``, loss
dilation and the protocol's inputs) reuse the fresh array the library
just made, over labels already known to be valid, and only mark it
read-only. A ket handed to ``loss.dilate`` or ``protocol.bsm`` passes
one normalisation gate, ``PureState._require_normalized``.

``project``, ``partial_trace`` and ``loss.dilate`` share one label plan,
``_split``, memoised per pair of registers (``dilate`` reads two: its
input's and its output's). A repeated or unknown mode has no plan, and
the caller builds its ``LabelError`` text anew. A ket keeps two values
in its instance dict, derived on first use since its amplitudes never
change, and nothing else: its ``norm2``, and its last loss dilation, in
one slot that ``loss.dilate`` reads and writes (channel, mode,
environment and the dilated ket), so a second dilation through the same
channel object is a lookup. ``project`` conjugates the projector ket's
amplitudes afresh on each call.

A ket made by loss dilation carries its input's ``norm2``, the value
that input's normalisation check read: the dilation is an isometry, so
the squared norm is unchanged, and later checks of that ket sum no
amplitudes. ``protocol.build_inputs`` keeps its ket with its
``InputPair`` the same way, so a pair, its ket and the ket's dilations
form one chain that lives as long as the pair. Each kept value is
written whole, in one dict assignment, and is what a fresh computation
would give; threads that race on one state at worst compute it twice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

__all__ = [
    "ATOL",
    "PSD_MIN_EIG",
    "LabelError",
    "PureState",
    "DensityMatrix",
    "ValidationReport",
    "tensor",
    "partial_trace",
    "project",
    "validate",
]

ATOL = 1e-12          # entrywise equality, Hermiticity and trace tolerance
PSD_MIN_EIG = -1e-10  # most negative admissible density-matrix eigenvalue

Label = str

# label pairs whose plan ``_split`` keeps
_PLANS = 1024


class LabelError(ValueError):
    """A register was given duplicate, unknown, or colliding mode labels."""


def _as_labels(labels: Union[Label, Iterable[Label]]) -> tuple[Label, ...]:
    labels = (labels,) if isinstance(labels, str) else tuple(labels)
    if len(set(labels)) != len(labels):
        raise LabelError(f"duplicate mode labels in {labels!r}")
    return labels


@dataclass(frozen=True)
class PureState:
    """Ket on a labeled register; ``amps[i]`` is the amplitude of basis index i."""

    labels: tuple[Label, ...]
    amps: np.ndarray

    def __post_init__(self):
        labels = _as_labels(self.labels)
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if amps.size != 2 ** len(labels):
            raise ValueError(
                f"amplitude vector of length {amps.size} does not fit "
                f"{len(labels)} modes"
            )
        amps.setflags(write=False)
        # straight into the instance dict: the frozen dataclass refuses setattr
        self.__dict__.update(labels=labels, amps=amps)

    @classmethod
    def _of(cls, labels: tuple[Label, ...], amps: np.ndarray, norm2: float | None = None
            ) -> "PureState":
        """Library-built ket: ``labels`` already checked, ``amps`` a fresh
        complex vector of the right size that no caller holds. No copy, no
        checks. ``norm2``, if given, is the ket's squared norm, already
        known (an isometry keeps its input's), and is kept as if computed."""
        amps.setflags(write=False)
        ket = object.__new__(cls)
        ket.__dict__.update(labels=labels, amps=amps)
        if norm2 is not None:
            ket.__dict__["norm2"] = norm2
        return ket

    @functools.cached_property
    def norm2(self) -> float:
        """Squared norm; the weight carried by an unnormalized ket.

        Computed on first use and kept: the amplitudes never change.
        """
        return float(np.vdot(self.amps, self.amps).real)

    def is_normalized(self) -> bool:
        """``norm2`` is 1 to within ``ATOL``."""
        return abs(self.norm2 - 1.0) <= ATOL

    def _require_normalized(self) -> None:
        """The gate of ``loss.dilate`` and ``bsm``: ``norm2`` is 1 to within 1e-9."""
        if not abs(self.norm2 - 1.0) <= 1e-9:
            raise ValueError(f"input state must be normalized (norm^2 = {self.norm2})")


@functools.lru_cache(maxsize=_PLANS)
def _split(labels: tuple[Label, ...], part: Union[Label, tuple[Label, ...]]):
    """The label plan ``(rest, index)`` of ``part``, a mode or modes of ``labels``.

    ``rest`` is the other modes, in their order; ``amps[index]`` reads a ket
    on ``labels`` as a (``part``, ``rest``) matrix. None when ``part``
    repeats a mode or names one not in ``labels``. Memoised and read-only.
    """
    part = (part,) if isinstance(part, str) else part
    if len(set(part)) != len(part) or not set(part) <= set(labels):
        return None
    rest = tuple(lab for lab in labels if lab not in part)
    perm = [labels.index(lab) for lab in part + rest]
    index = np.arange(2 ** len(labels)).reshape((2,) * len(labels)).transpose(perm)
    index = index.reshape(2 ** len(part), -1)
    index.setflags(write=False)
    return rest, index


@dataclass(frozen=True)
class DensityMatrix:
    """Possibly subnormalized density operator on a labeled register.

    ``weight`` is the trace. Traced out of a projected ket, it is the
    post-selection probability; nothing renormalizes it.
    """

    labels: tuple[Label, ...]
    entries: np.ndarray
    weight: float | None = None  # derived from the trace when omitted

    def __post_init__(self):
        labels = _as_labels(self.labels)
        dim = 2 ** len(labels)
        entries = np.array(self.entries, dtype=complex)
        if entries.shape != (dim, dim):
            raise ValueError(
                f"matrix of shape {entries.shape} does not fit {len(labels)} modes"
            )
        weight = self.weight
        if weight is None:
            weight = float(entries.trace().real)
        weight = float(weight)
        if weight < 0.0:
            if weight < -ATOL:
                raise ValueError(f"negative weight {weight}")
            weight = 0.0
        entries.setflags(write=False)
        self.__dict__.update(labels=labels, entries=entries, weight=weight)

    @classmethod
    def _of(cls, labels: tuple[Label, ...], entries: np.ndarray, weight: float
            ) -> "DensityMatrix":
        """Library-built state: ``labels`` already checked, ``entries`` a fresh
        complex matrix of the right shape that no caller holds, ``weight`` a
        nonnegative float. No copy, no checks."""
        entries.setflags(write=False)
        rho = object.__new__(cls)
        rho.__dict__.update(labels=labels, entries=entries, weight=weight)
        return rho

    def normalized(self) -> "DensityMatrix":
        if self.weight <= 0.0:
            raise ValueError("cannot normalize a zero-weight state")
        return DensityMatrix._of(self.labels, self.entries / self.weight, 1.0)

    def to_json_dict(self) -> dict:
        return {
            "kind": "density_matrix",
            "labels": list(self.labels),
            "weight": self.weight,
            "entries": [[[z.real, z.imag] for z in row] for row in self.entries],
        }


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product of two kets; labels concatenate and must not overlap."""
    labels = a.labels + b.labels
    if not set(a.labels).isdisjoint(b.labels):
        raise LabelError(f"duplicate mode labels in {labels!r}")
    return PureState._of(labels, (a.amps[:, None] * b.amps).ravel())


def partial_trace(
    psi: PureState, discard: Union[Label, Iterable[Label]]
) -> DensityMatrix:
    """Density matrix of a ket's remaining modes after tracing out ``discard``.

    The kept modes stay in their order. Discarding nothing gives
    |psi><psi|; discarding every mode leaves a 0-mode register whose 1x1
    matrix holds ``psi.norm2``.
    """
    if not isinstance(discard, (str, tuple)):
        discard = tuple(discard)
    plan = _split(psi.labels, discard)
    if plan is None:
        discard = _as_labels(discard)
        unknown = set(discard) - set(psi.labels)
        raise LabelError(f"cannot trace out unknown modes {sorted(unknown)!r}")
    keep, index = plan
    # w is the (discarded, kept) matrix, so rho = w^T w*
    w = psi.amps[index]
    rho = np.dot(w.T, w.conj())
    # the diagonal holds sums of squares, so the weight is never negative;
    # ndarray.trace runs this same reduction behind a slower wrapper
    return DensityMatrix._of(keep, rho, float(np.add.reduce(rho.diagonal()).real))


def project(psi: PureState, ket: PureState) -> PureState:
    """Contract a sub-register of ``psi`` with the bra <k| of a normalized ``ket``.

    Returns the unnormalized ket on the remaining modes, in their order.
    Its ``norm2`` is the post-selection probability, never larger than
    ``psi.norm2``.
    """
    if not ket.is_normalized():
        raise ValueError(f"projector ket must be normalized (norm^2 = {ket.norm2})")
    plan = _split(psi.labels, ket.labels)
    if plan is None:
        missing = set(ket.labels) - set(psi.labels)
        raise LabelError(f"projector acts on unknown modes {sorted(missing)!r}")
    keep, index = plan
    return PureState._of(keep, np.dot(ket.amps.conj(), psi.amps[index]))


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics of a density matrix against the module tolerances."""

    hermiticity_dev: float
    min_eigenvalue: float
    trace_dev: float
    passed: bool


def validate(
    rho: DensityMatrix, atol: float = ATOL, min_eig: float = PSD_MIN_EIG
) -> ValidationReport:
    """Check Hermiticity, positivity, and trace bookkeeping.

    Always returns a report; never raises. The eigenvalue check runs on
    the Hermitian part so it stays meaningful for non-Hermitian input.
    """
    e = rho.entries
    herm_dev = float(np.max(np.abs(e - e.conj().T)))
    lo = float(np.linalg.eigvalsh((e + e.conj().T) / 2.0)[0])
    trace_dev = float(abs(complex(np.trace(e)) - rho.weight))
    passed = herm_dev <= atol and lo >= min_eig and trace_dev <= atol
    return ValidationReport(herm_dev, lo, trace_dev, passed)
