"""Idealized model of the tabletop demonstration.

Two weakly pumped down-conversion sources prepare the input pairs (the
pair amplitude ratio is set by how the pump is split between the
crystals), the heralded state is scanned with the phase projectors, and
coincidence counts are synthesized with Poisson noise. No detector
imperfections are modeled; the only stochastic element is counting
statistics, driven by an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss import LossChannel
from .metrics import TWO_PI, FringeScan, VisibilityReport, fringe_scan
from .protocol import InputPair, Pairs, _heralded, success_probability, swap
from .states import ATOL

__all__ = [
    "SpdcSource",
    "CountModel",
    "SynthCounts",
    "spdc_input",
    "pump_split",
    "synth_counts",
    "estimate_visibility",
    "normalized_success",
]

# numpy's Poisson sampler refuses a mean above its own bound, taken from the
# C long range; a scan probability may reach 1 + ATOL, so the largest mean
# count that ``synth_counts`` can always draw is that bound over 1 + ATOL
_POISSON_MEAN_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)
MAX_MEAN_COUNTS = _POISSON_MEAN_MAX / (1.0 + ATOL)

MAX_XI = 0.5  # the largest |xi| whose one-pair truncation is trusted


@dataclass(frozen=True)
class SpdcSource:
    """Weak two-mode squeezer truncated at one pair: |00> + xi |11>.

    The truncation is only trustworthy for |xi| well below 1; |xi| >
    ``MAX_XI`` is rejected.
    """

    xi: complex

    def __post_init__(self):
        xi = complex(self.xi)
        # also refuses NaN, which fails every comparison
        if not abs(xi) <= MAX_XI:
            raise ValueError(
                f"|xi| = {abs(xi):.3f} > {MAX_XI}: single-pair truncation not valid"
            )
        object.__setattr__(self, "xi", xi)


@dataclass(frozen=True)
class CountModel:
    """Counting-statistics knobs: mean total counts per phase setting, seed.

    The mean must lie in [0, ``MAX_MEAN_COUNTS``], so that every scan point
    can be sampled.
    """

    mean_total_counts: float = 1e5
    seed: int = 0

    def __post_init__(self):
        if self.mean_total_counts < 0:
            raise ValueError("mean_total_counts must be nonnegative")
        mean = float(self.mean_total_counts)
        # also refuses NaN, which fails every comparison
        if not mean <= MAX_MEAN_COUNTS:
            raise ValueError(
                f"mean_total_counts = {mean!r} must be finite and at most "
                f"MAX_MEAN_COUNTS = {MAX_MEAN_COUNTS!r}, numpy's Poisson limit"
            )
        object.__setattr__(self, "mean_total_counts", mean)
        object.__setattr__(self, "seed", int(self.seed))


def spdc_input(src_a: SpdcSource, src_b: SpdcSource) -> InputPair:
    """Input pair from two sources: beta/alpha = xi_a, delta/gamma = xi_b."""
    na = math.sqrt(1.0 + abs(src_a.xi) ** 2)
    nb = math.sqrt(1.0 + abs(src_b.xi) ** 2)
    return InputPair(1.0 / na, src_a.xi / na, 1.0 / nb, src_b.xi / nb)


def pump_split(ratio: float, xi_total: complex) -> tuple[SpdcSource, SpdcSource]:
    """Split the pump between the two crystals.

    A fraction ``ratio`` of the pump power goes to source A; the squeezing
    amplitude scales with the pump field, so xi_a = sqrt(ratio) * xi_total
    and xi_b = sqrt(1 - ratio) * xi_total (hence xi_a^2 + xi_b^2 = xi_total^2).
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"pump split ratio must lie in [0, 1], got {ratio}")
    return (
        SpdcSource(math.sqrt(ratio) * xi_total),
        SpdcSource(math.sqrt(1.0 - ratio) * xi_total),
    )


@dataclass(frozen=True)
class SynthCounts:
    """Synthesized coincidence counts for one middle-station setting.

    ``scan`` is the noiseless fringe scan whose probabilities set the means.
    """

    counts_plus: np.ndarray
    counts_minus: np.ndarray
    scan: FringeScan


def synth_counts(
    pair: InputPair,
    t1: float | LossChannel,
    t2: float | LossChannel,
    setting: str,
    thetas,
    model: CountModel,
) -> SynthCounts:
    """Poisson coincidence counts for a phase scan of the heralded state.

    ``t1`` and ``t2`` are the two arms' losses, each an amplitude
    transmittivity or a ``LossChannel``, as ``swap`` takes them; a channel
    object passed to several calls lets them share the dilations that
    ``loss.dilate`` keeps with the pair's input ket. ``setting`` names the
    middle-station setting, ``"X+"`` ... ``"Z-"``, as ``swap`` takes it.
    Expected counts are ``mean_total_counts * p_pm(theta)`` from the
    fringe scan of the swap output; realized counts are Poisson draws from
    a generator seeded with ``model.seed``, so identical inputs give
    bit-identical counts. The scan is returned with the counts.
    """
    outcome = swap(pair, t1, t2, setting)
    scan = fringe_scan(outcome.rho_ab, thetas)
    rng = np.random.default_rng(model.seed)
    counts_plus = rng.poisson(model.mean_total_counts * scan.p_plus)
    counts_minus = rng.poisson(model.mean_total_counts * scan.p_minus)
    return SynthCounts(counts_plus, counts_minus, scan)


def estimate_visibility(thetas, counts) -> VisibilityReport:
    """Cosine-fit visibility with Poisson error propagation.

    Weighted least squares of ``a + b cos(theta + c)`` (linearized as
    a + u cos theta + v sin theta) with per-point variance max(counts, 1);
    V = |b| / a and its 1-sigma uncertainty from the parameter covariance.
    Needs at least 8 phases spanning a full period.
    """
    thetas = np.asarray(thetas, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if thetas.ndim != 1 or counts.shape != thetas.shape:
        raise ValueError("counts must be a 1-d array matching the phase grid")
    if thetas.size < 8:
        raise ValueError(f"need at least 8 phase points, got {thetas.size}")
    order = np.argsort(thetas)
    thetas, counts = thetas[order], counts[order]
    n = thetas.size
    if thetas[-1] - thetas[0] < 0.9 * TWO_PI * (n - 1) / n:
        raise ValueError("phase grid must cover a full period")
    design = np.column_stack([np.ones(n), np.cos(thetas), np.sin(thetas)])
    sigma2 = np.maximum(counts, 1.0)  # Poisson variance, floored for empty bins
    sqrt_w = 1.0 / np.sqrt(sigma2)
    weighted = design * sqrt_w[:, None]
    coef, *_ = np.linalg.lstsq(weighted, counts * sqrt_w, rcond=None)
    a, u, v = (float(x) for x in coef)
    if a <= 0.0:
        raise ValueError(f"fit failure: nonpositive baseline a = {a}")
    b = math.hypot(u, v)
    vis = b / a
    if b > 0.0:
        grad = np.array([-b / a ** 2, u / (a * b), v / (a * b)])
    else:
        grad = np.array([0.0, 1.0 / a, 0.0])
    # the parameter covariance is (W^T W)^-1 = R^-1 R^-T for W = QR, so the
    # variance grad^T cov grad is |R^-T grad|^2: never negative, and no
    # normal matrix (condition squared) to invert when counts reach ~1e17
    r = np.linalg.qr(weighted, mode="r")
    return VisibilityReport(vis, sigma=float(np.linalg.norm(np.linalg.solve(r.T, grad))))


def normalized_success(pair: Pairs, t1, t2):
    """Heralding probability relative to the same inputs on lossless channels.

    ``pair`` (one ``InputPair``, or a sequence of them as an axis), ``t1``
    and ``t2`` broadcast as in ``success_probability``; a lone point gives
    a float.
    """
    baseline = success_probability(pair, 1.0, 1.0)
    _heralded(baseline, "lossless baseline probability")
    return success_probability(pair, t1, t2) / baseline
