"""Sounding model and the AoD estimators: two-stage widebeam + beam pair,
grid-of-beams, and grid-of-beams with pairwise ratio refinement.

One sounding transmits a unit symbol through a precoder and combines with a
unit-norm receive vector: y = sqrt(rho) * w^H H f + w^H n with n ~ CN(0, I).
For a unit-norm w and fresh n per sounding, w^H n is exactly CN(0, 1) and
independent across soundings, so each estimator takes one complex noise
sample per sounding from its caller (None: noiseless) and draws nothing.
The receiver always steers at the true arrival angle of the dominant path,
so an estimator sees the channel only through its receive row rx^H H, an
(N,) array: row t of a realization's (T, N) `matched_row` (see `channel`),
which the engine passes per draw; a single draw's row is `matched_row[0]`.
The pair stage forms the ratio (chi_minus - chi_plus) / (chi_minus + chi_plus)
of the two beam powers and inverts its closed form to the off-center angle.
A pair total at most PAIR_NULL_FRACTION of the strongest sweep power is a
shared null of both pair beams (an even-k boresight): its ratio is 0.
A report holds only what inference computed: the estimate in degrees, the
stage-1 selection and the pair ratio. The sounding budget is the estimator
entry's (`EstimatorSpec.soundings`), not the report's.

Inference after the sweep's argmax runs on Python floats: the pair powers,
the ratio and its inversion. Each step is the IEEE operation the numpy
scalar formula performs, so every estimate is byte for byte the same:
`math.sqrt` is correctly rounded like `np.sqrt`, and (sin, cos) of a half
width are computed with numpy once per half width and cached. `np.arcsin`
and `np.degrees` stay numpy, as `math.asin` differs from `np.arcsin` in the
last bit on some hosts (see `arrays`). tests/test_estimators.py checks the
float path against the numpy-scalar formulas.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arrays import spatial_to_angle
from .beams import SteeringCodebook, WidebeamCodebook, is_adequate

POWER_FLOOR = 1e-300
PAIR_NULL_FRACTION = 1e-20  # about 13 decades below any fig3-fig6 draw's pair total / peak


class DegenerateSoundingError(RuntimeError):
    """Both pair powers are at the floor; the ratio metric is undefined."""


@dataclass(frozen=True)
class EstimationReport:
    """What inference computed: the estimate, the stage-1 pick and the pair ratio (0 without a pair)."""

    estimate_deg: float
    stage1_selection: int
    ratio_metric: float


def _sound(row: np.ndarray, beams: np.ndarray, snr: float, noise) -> np.ndarray:
    """Received samples y = sqrt(snr) * row @ f + n for every column f of `beams`.

    `row` is the receive row h_row = rx^H H of one channel draw, with the
    combiner rx steered at the arrival angle of the dominant path, so every
    estimator sounding that draw shares it. `noise` holds the combined noise
    rx^H n of each sounding, one CN(0, 1) sample per column; None models
    noiseless sounding.
    """
    if np.shape(row) != beams.shape[:1]:
        raise ValueError(f"need one receive row of shape ({beams.shape[0]},), got shape {np.shape(row)}")
    y = math.sqrt(snr) * (row @ beams)
    if noise is None:
        return y
    if np.shape(noise) != y.shape:
        raise ValueError(f"need one noise sample per sounding: {y.shape[0]} soundings, "
                         f"noise of shape {np.shape(noise)}")
    y += noise
    return y


def _powers(row: np.ndarray, beams: np.ndarray, snr: float, noise) -> np.ndarray:
    """Received powers |y|**2 of `_sound`, one per column of `beams`."""
    chi = np.abs(_sound(row, beams, snr, noise))
    chi *= chi
    return chi


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
    if not 0 < delta < math.pi / 2:
        raise ValueError(f"delta must be in (0, pi/2), got {delta}")
    z = min(max(float(zeta), -1.0), 1.0)
    if z == -1.0:
        return center + delta
    if z == 1.0:
        return center - delta
    sd, cd = _sin_cos(delta)
    num = z * sd - z * math.sqrt(1.0 - z * z) * sd * cd
    den = sd * sd + z * z * cd * cd
    # numpy's division: where sin(delta)**2 and z**2 both underflow, 0/0 is nan, not ZeroDivisionError
    return center - float(np.arcsin(np.float64(num) / den))


@lru_cache(maxsize=1024)
def _sin_cos(delta: float) -> tuple:
    """(sin, cos) of a pair half width as floats, from numpy's ufuncs; a sweep uses a few half widths."""
    return float(np.sin(delta)), float(np.cos(delta))


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


def _refine(chi_minus: float, chi_plus: float, delta: float, center: float, peak: float) -> tuple:
    """Pair refinement: (zeta, mu_hat) from the two pair powers.

    A pair at a shared null (total at most PAIR_NULL_FRACTION of the sweep's
    `peak` power) or at the floor falls back to zeta = 0, the pair center.
    """
    try:
        zeta = ratio_metric(chi_minus, chi_plus) if chi_minus + chi_plus > PAIR_NULL_FRACTION * peak else 0.0
    except DegenerateSoundingError:
        zeta = 0.0
    return zeta, invert_ratio(zeta, delta, center)


def _report(mu_hat: float, geometry, selection: int, zeta: float = 0.0) -> EstimationReport:
    """Clamp a spatial-frequency estimate to the visible range and report it in degrees."""
    lim = geometry.spatial_limit
    sf = float(min(max(mu_hat, -lim), lim))
    return EstimationReport(estimate_deg=spatial_to_angle(sf, geometry), stage1_selection=selection,
                            ratio_metric=zeta)


def estimate_two_stage(row: np.ndarray, codebook: WidebeamCodebook,
                       snr: float, noise) -> EstimationReport:
    """Widebeam sweep to pick a sector, then pair ratio inversion inside it.

    Stage 1 sounds every widebeam once and keeps the strongest. Stage 2 sounds
    the two steering beams on the selected beam's edges and inverts the power
    ratio. Uses J + 2 soundings for a J-beam codebook; `noise` holds the J
    stage-1 samples, then the two stage-2 samples.
    """
    j = codebook.num_beams
    stage1, stage2 = (None, None) if noise is None else (noise[:j], noise[j:])
    chi1 = _powers(row, codebook.matrix, snr, stage1)
    j_max = int(chi1.argmax())
    gamma = float(codebook.boresights[j_max])
    chi_minus, chi_plus = _powers(row, codebook.pairs[j_max], snr, stage2).tolist()
    zeta, mu_hat = _refine(chi_minus, chi_plus, codebook.half_width, gamma, float(chi1[j_max]))
    return _report(mu_hat, codebook.geometry, j_max, zeta)


def estimate_gob(row: np.ndarray, codebook: SteeringCodebook,
                 snr: float, noise) -> EstimationReport:
    """Sound every narrow beam once; the strongest beam's boresight is the estimate."""
    best = int(_powers(row, codebook.matrix, snr, noise).argmax())
    return _report(float(codebook.boresights[best]), codebook.geometry, best)


def estimate_gob_abp(row: np.ndarray, codebook: SteeringCodebook,
                     snr: float, noise) -> EstimationReport:
    """Narrow-beam sweep refined by the power ratio of the two strongest neighbors.

    Pairs the strongest beam with its larger-power neighbor (the single
    available one at the codebook edges) and inverts at that pair's stored
    center and half width (`SteeringCodebook.pair_geometry`). Reuses the sweep
    powers, so the budget equals the codebook size.
    """
    chi = _powers(row, codebook.matrix, snr, noise)
    best = int(chi.argmax())
    neighbors = [i for i in (best - 1, best + 1) if 0 <= i < codebook.num_beams]
    if not neighbors:
        return _report(float(codebook.boresights[best]), codebook.geometry, best)
    other = max(neighbors, key=lambda i: chi[i])
    lo = min(best, other)
    center, half = codebook.pair_geometry[lo]
    zeta, mu_hat = _refine(float(chi[lo]), float(chi[lo + 1]), half, center, float(chi[best]))
    return _report(mu_hat, codebook.geometry, best, zeta)
