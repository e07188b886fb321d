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
pure function, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

__all__ = [
    "ATOL",
    "PSD_MIN_EIG",
    "Label",
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
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amps", amps)

    @property
    def num_modes(self) -> int:
        return len(self.labels)

    @property
    def norm2(self) -> float:
        """Squared norm; the weight carried by an unnormalized ket."""
        return float(np.vdot(self.amps, self.amps).real)

    def is_normalized(self, atol: float = ATOL) -> bool:
        return abs(self.norm2 - 1.0) <= atol

    def normalized(self) -> "PureState":
        n2 = self.norm2
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero state")
        return PureState(self.labels, self.amps / np.sqrt(n2))

    def reorder(self, labels: Iterable[Label]) -> "PureState":
        """Permute the register so it reads ``labels``."""
        labels = _as_labels(labels)
        if set(labels) != set(self.labels):
            raise LabelError(f"cannot reorder {self.labels!r} into {labels!r}")
        perm = [self.labels.index(lab) for lab in labels]
        amps = self.amps.reshape((2,) * self.num_modes).transpose(perm).reshape(-1)
        return PureState(labels, amps)


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
        entries.setflags(write=False)
        weight = self.weight
        if weight is None:
            weight = float(np.trace(entries).real)
        weight = float(weight)
        if weight < 0.0:
            if weight < -ATOL:
                raise ValueError(f"negative weight {weight}")
            weight = 0.0
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "weight", weight)

    @property
    def num_modes(self) -> int:
        return len(self.labels)

    def normalized(self) -> "DensityMatrix":
        if self.weight <= 0.0:
            raise ValueError("cannot normalize a zero-weight state")
        return DensityMatrix(self.labels, self.entries / self.weight, weight=1.0)

    def to_json_dict(self) -> dict:
        return {
            "kind": "density_matrix",
            "labels": list(self.labels),
            "weight": self.weight,
            "entries": [[[z.real, z.imag] for z in row] for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityMatrix":
        entries = np.array(
            [[complex(re, im) for re, im in row] for row in data["entries"]]
        )
        return cls(tuple(data["labels"]), entries, weight=data.get("weight"))


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product of two kets; labels concatenate."""
    return PureState(a.labels + b.labels, np.kron(a.amps, b.amps))


def partial_trace(
    psi: PureState, discard: Union[Label, Iterable[Label]]
) -> DensityMatrix:
    """Density matrix of a ket's remaining modes after tracing out ``discard``.

    The kept modes stay in their order. Discarding nothing gives
    |psi><psi|; discarding every mode leaves a 0-mode register whose 1x1
    matrix holds ``psi.norm2``.
    """
    discard = _as_labels(discard)
    unknown = set(discard) - set(psi.labels)
    if unknown:
        raise LabelError(f"cannot trace out unknown modes {sorted(unknown)!r}")
    keep = tuple(lab for lab in psi.labels if lab not in discard)
    v = psi.reorder(keep + discard).amps.reshape(2 ** len(keep), -1)
    return DensityMatrix(keep, v @ v.conj().T)


def project(psi: PureState, projector_ket: PureState) -> PureState:
    """Contract a sub-register of ``psi`` with a normalized bra <k|.

    Returns the unnormalized ket on the remaining modes, in their order.
    Its ``norm2`` is the post-selection probability, never larger than
    ``psi.norm2``.
    """
    if not projector_ket.is_normalized():
        raise ValueError(
            f"projector ket must be normalized (norm^2 = {projector_ket.norm2})"
        )
    missing = set(projector_ket.labels) - set(psi.labels)
    if missing:
        raise LabelError(f"projector acts on unknown modes {sorted(missing)!r}")
    keep = tuple(lab for lab in psi.labels if lab not in projector_ket.labels)
    v = psi.reorder(projector_ket.labels + keep).amps.reshape(-1, 2 ** len(keep))
    return PureState(keep, projector_ket.amps.conj() @ v)


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
