"""Sounding model and the AoD estimators: two-stage widebeam + beam pair,
grid-of-beams, and grid-of-beams with pairwise ratio refinement.

One sounding transmits a unit symbol through a precoder and combines with a
unit-norm receive vector: y = sqrt(rho) * w^H H f + w^H n with n ~ CN(0, I).
The receiver always steers at the true arrival angle of the dominant path.
The pair stage forms the ratio (chi_minus - chi_plus) / (chi_minus + chi_plus)
of the two beam powers and inverts its closed form to the off-center angle.
"""

import numpy as np
from dataclasses import dataclass

from .arrays import spatial_to_angle
from .beams import SteeringCodebook, WidebeamCodebook, is_adequate
from .channel import ChannelRealization

__all__ = [
    "DegenerateSoundingError",
    "SoundingResult",
    "EstimationReport",
    "sound",
    "ratio_metric",
    "invert_ratio",
    "closed_form_powers",
    "estimate_two_stage",
    "estimate_gob",
    "estimate_gob_abp",
]

POWER_FLOOR = 1e-300
_NORM_TOL = 1e-8
_SQRT2 = float(np.sqrt(2.0))  # the CN(0, 1) noise scale


class DegenerateSoundingError(RuntimeError):
    """Both pair powers are at the floor; the ratio metric is undefined."""


@dataclass(frozen=True)
class SoundingResult:
    """One received sample y and its power |y|^2."""

    sample: complex
    power: float


@dataclass(frozen=True)
class EstimationReport:
    """Estimate in degrees and spatial frequency plus bookkeeping."""

    estimate_deg: float
    estimate_sf: float
    soundings_used: int
    stage1_selection: int
    ratio_metric: float


def _check_unit(vec, name):
    nrm = np.linalg.norm(vec)
    if abs(nrm - 1.0) > _NORM_TOL:
        raise ValueError(f"{name} must be unit norm, got ||.|| = {nrm!r}")


def _sounder(channel: ChannelRealization, rx_combiner: np.ndarray | None = None):
    """The sounding kernel for one channel realization.

    Returns sweep(beams, snr, rng): the received samples
    y = sqrt(snr) * rx^H H f + rx^H n for every column f of `beams`, each with
    fresh CN(0, I) noise n; rng=None models noiseless sounding. The default
    combiner is the matched receiver, steered at the arrival angle of the
    dominant path; its row h_row = rx^H H belongs to the channel, so every
    estimator sounding one draw shares it. An explicit combiner forms its own
    h_row.
    """
    if rx_combiner is None:
        rx_combiner, h_row = channel.matched_combiner, channel.matched_row
    else:
        h_row = rx_combiner.conj() @ channel.matrix()
    rx_h = rx_combiner.conj()
    m = len(rx_combiner)

    def sweep(beams: np.ndarray, snr: float, rng) -> np.ndarray:
        y = np.sqrt(snr) * (h_row @ beams)
        if rng is None:
            return y
        shape = (m, beams.shape[1])
        noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / _SQRT2
        return y + rx_h @ noise

    return sweep


def sound(channel: ChannelRealization, tx_precoder: np.ndarray, rx_combiner: np.ndarray,
          snr: float, rng) -> SoundingResult:
    """One pilot transmission through (tx_precoder, rx_combiner) at linear SNR `snr`."""
    if snr < 0:
        raise ValueError(f"snr must be >= 0, got {snr}")
    _check_unit(tx_precoder, "tx_precoder")
    _check_unit(rx_combiner, "rx_combiner")
    y = _sounder(channel, rx_combiner)(np.asarray(tx_precoder).reshape(-1, 1), snr, rng)[0]
    return SoundingResult(sample=complex(y), power=abs(y) ** 2)


def ratio_metric(chi_minus: float, chi_plus: float) -> float:
    """Difference-over-sum of the pair powers, clamped to [-1, 1].

    Raises DegenerateSoundingError when both powers sit at the floor; callers
    fall back to a ratio of 0 (estimate at the pair center).
    """
    if chi_minus < 0 or chi_plus < 0:
        raise ValueError("powers must be nonnegative")
    total = chi_minus + chi_plus
    if total < POWER_FLOOR:
        raise DegenerateSoundingError("pair powers are both at the floor")
    return float(min(max((chi_minus - chi_plus) / total, -1.0), 1.0))


def invert_ratio(zeta: float, delta: float, center: float) -> float:
    """Closed-form inverse of the pair ratio: off-center angle from zeta.

    mu = center - arcsin((z*sin d - z*sqrt(1-z^2)*sin d*cos d) / (sin^2 d + z^2 cos^2 d))

    The saturated ratios z = -+1 reduce analytically to the pair edges
    center +- delta and are returned directly, exact to the last bit.
    """
    if not 0 < delta < np.pi / 2:
        raise ValueError(f"delta must be in (0, pi/2), got {delta}")
    z = min(max(float(zeta), -1.0), 1.0)
    if z == -1.0:
        return center + delta
    if z == 1.0:
        return center - delta
    sd, cd = np.sin(delta), np.cos(delta)
    num = z * sd - z * np.sqrt(1.0 - z * z) * sd * cd
    den = sd * sd + z * z * cd * cd
    return center - float(np.arcsin(num / den))


def closed_form_powers(mu: float, center: float, delta: float, num_elements: int,
                       snr: float, path_gain: complex):
    """Noiseless pair powers in closed trigonometric form (odd adequacy k only).

    Returns snr*|gain|^2 * cos^2(N*d/2) / sin^2((d +- delta)/2) with d = mu-center,
    continuously extended where the denominator vanishes. For even k the shared
    numerator takes the sin^2 form instead, so this expression does not apply.
    """
    adequate, k = is_adequate(delta, num_elements)
    if not adequate:
        raise ValueError(f"delta {delta!r} is not k*pi/N for N={num_elements}")
    if k % 2 == 0:
        raise ValueError(f"closed-form pair powers require odd k, got k={k}")
    n = num_elements
    scale = snr * abs(path_gain) ** 2
    d = mu - center
    numerator = np.cos(0.5 * n * d) ** 2

    def one_side(offset):
        s = np.sin(0.5 * (d + offset))
        if abs(s) < 1e-12:
            return scale * n * n  # limit of the 0/0 point: unit-gain beam alignment
        return scale * numerator / (s * s)

    return one_side(delta), one_side(-delta)


def _refine(chi_minus: float, chi_plus: float, delta: float, center: float) -> tuple:
    """Pair refinement: (zeta, mu_hat) from the two pair powers.

    A degenerate pair (both powers at the floor) falls back to zeta = 0, the
    pair center.
    """
    try:
        zeta = ratio_metric(chi_minus, chi_plus)
    except DegenerateSoundingError:
        zeta = 0.0
    return zeta, invert_ratio(zeta, delta, center)


def _report(mu_hat: float, geometry, soundings: int, selection: int,
            zeta: float = 0.0) -> EstimationReport:
    """Clamp a spatial-frequency estimate to the visible range and report it."""
    lim = geometry.spatial_limit
    sf = float(min(max(mu_hat, -lim), lim))
    return EstimationReport(estimate_deg=spatial_to_angle(sf, geometry), estimate_sf=sf,
                            soundings_used=soundings, stage1_selection=selection,
                            ratio_metric=zeta)


def estimate_two_stage(channel: ChannelRealization, codebook: WidebeamCodebook,
                       snr: float, rng) -> EstimationReport:
    """Widebeam sweep to pick a sector, then pair ratio inversion inside it.

    Stage 1 sounds every widebeam once and keeps the strongest. Stage 2 sounds
    the two steering beams on the selected beam's edges and inverts the power
    ratio. Uses J + 2 soundings for a J-beam codebook.
    """
    sweep = _sounder(channel)
    j_max = int(np.argmax(np.abs(sweep(codebook.matrix, snr, rng)) ** 2))
    gamma = float(codebook.boresights[j_max])
    chi2 = np.abs(sweep(codebook.pairs[j_max], snr, rng)) ** 2
    zeta, mu_hat = _refine(chi2[0], chi2[1], codebook.half_width, gamma)
    return _report(mu_hat, codebook.geometry, codebook.num_beams + 2, j_max, zeta)


def estimate_gob(channel: ChannelRealization, codebook: SteeringCodebook,
                 snr: float, rng) -> EstimationReport:
    """Sound every narrow beam once; the strongest beam's boresight is the estimate."""
    best = int(np.argmax(np.abs(_sounder(channel)(codebook.matrix, snr, rng)) ** 2))
    return _report(float(codebook.boresights[best]), codebook.geometry, codebook.num_beams, best)


def estimate_gob_abp(channel: ChannelRealization, codebook: SteeringCodebook,
                     snr: float, rng) -> EstimationReport:
    """Narrow-beam sweep refined by the power ratio of the two strongest neighbors.

    Pairs the strongest beam with its larger-power neighbor (the single
    available one at the codebook edges); the pair center is the boresight
    midpoint and the pair half width is half their spacing. Reuses the sweep
    powers, so the budget equals the codebook size.
    """
    chi = np.abs(_sounder(channel)(codebook.matrix, snr, rng)) ** 2
    best = int(np.argmax(chi))
    neighbors = [i for i in (best - 1, best + 1) if 0 <= i < codebook.num_beams]
    if not neighbors:
        return _report(float(codebook.boresights[best]), codebook.geometry, codebook.num_beams, best)
    other = max(neighbors, key=lambda i: chi[i])
    lo, hi = min(best, other), max(best, other)
    center = 0.5 * float(codebook.boresights[lo] + codebook.boresights[hi])
    half = 0.5 * float(codebook.boresights[hi] - codebook.boresights[lo])
    zeta, mu_hat = _refine(float(chi[lo]), float(chi[hi]), half, center)
    return _report(mu_hat, codebook.geometry, codebook.num_beams, best, zeta)
