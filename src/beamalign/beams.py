"""Steering-beam codebooks, flat-top widebeam synthesis, and auxiliary beam pairs.

A widebeam is a linear combination of steering vectors: an analog matrix with
columns a(gamma), a(gamma+xi_1), a(gamma-xi_1), ... and a baseband vector
[c0, c1, c1*, c2, c2*, ...] whose magnitudes are non-increasing. The half
width delta of an "adequate" widebeam is k*pi/N for a positive integer k, so
that the two pair beams at gamma +- delta sit exactly on the beam edges.
"""

import csv
import itertools
import logging
from dataclasses import dataclass
from functools import cached_property, lru_cache
from time import perf_counter

import numpy as np

from .arrays import ArrayGeometry, angle_to_spatial, spatial_to_angle, steering, steering_matrix

DEFAULT_N_RF = 5
DEFAULT_ADEQUACY_K = 2
# search/evaluation resolution for the widebeam optimizer
XI_GRID_STEPS = 24
EVAL_POINTS = 2048
# xi candidates fitted at once: bounds synthesis memory at any candidate count
SYNTH_BLOCK = 64

log = logging.getLogger(__name__)


class SynthesisError(RuntimeError):
    """Widebeam optimizer found no candidate meeting the -3 dB flat-top floor.

    Carries the best candidate found (a WidebeamPrecoder) in `best`.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class WidebeamPrecoder:
    """Unit-norm widebeam: analog steering columns times a baseband vector."""

    boresight: float
    half_width: float
    offsets: tuple  # xi_i offsets of the analog columns, symmetric about 0
    analog_matrix: np.ndarray  # N x n_rf, columns a(boresight + offset)
    baseband_vector: np.ndarray  # n_rf complex weights [c0, c1, c1*, ...]
    combined: np.ndarray  # unit-norm N-vector analog_matrix @ baseband_vector
    geometry: ArrayGeometry


@dataclass(frozen=True, eq=False)
class WidebeamCodebook:
    """Uniformly spaced widebeams sharing one half width over a spatial-frequency span.

    The stacked beams, their boresights and the auxiliary beam pairs on their
    edges are built on first use and kept, read-only.
    """

    beams: tuple
    span: tuple  # (lo, hi) spatial frequency interval covered
    k: int | None  # adequacy integer, None when the half width is not k*pi/N
    geometry: ArrayGeometry

    @property
    def half_width(self) -> float:
        return self.beams[0].half_width

    @property
    def num_beams(self) -> int:
        return len(self.beams)

    @cached_property
    def boresights(self) -> np.ndarray:
        return _read_only(np.array([b.boresight for b in self.beams]))

    @cached_property
    def matrix(self) -> np.ndarray:
        """All combined precoders as columns, shape (N, J)."""
        return _read_only(np.stack([b.combined for b in self.beams], axis=1))

    @cached_property
    def pairs(self) -> np.ndarray:
        """The auxiliary beam pairs, shape (J, N, 2): `pairs[j]` is beam j's `build_abp` array."""
        return _read_only(np.stack([build_abp(b.boresight, self.half_width, self.geometry) for b in self.beams]))


@dataclass(frozen=True, eq=False)
class SteeringCodebook:
    """Grid of narrow steering beams uniformly spaced in spatial frequency."""

    boresights: np.ndarray
    matrix: np.ndarray  # N x num_beams steering vectors
    geometry: ArrayGeometry

    @property
    def num_beams(self) -> int:
        return len(self.boresights)

    @cached_property
    def pair_geometry(self) -> tuple:
        """Per adjacent beam pair (i, i + 1), its center and half width: half the boresight sum and spacing."""
        b = self.boresights
        return tuple(zip((0.5 * (b[:-1] + b[1:])).tolist(), (0.5 * (b[1:] - b[:-1])).tolist()))


def is_adequate(delta: float, num_elements: int):
    """Check delta = k*pi/N for a positive integer k; returns (bool, k or None)."""
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    ratio = delta * num_elements / np.pi
    k = int(round(ratio))
    if k >= 1 and abs(ratio - k) <= 1e-9:
        return True, k
    return False, None


def beam_power_pattern(precoder: np.ndarray, grid) -> np.ndarray:
    """Power pattern |a(mu)^H precoder|^2 over a spatial-frequency grid."""
    precoder = np.asarray(precoder)
    nrm = np.linalg.norm(precoder)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"precoder must be unit norm, got ||.|| = {nrm!r}")
    geom = ArrayGeometry(len(precoder))
    resp = steering_matrix(grid, geom).conj().T @ precoder
    return np.abs(resp) ** 2


def _pattern_grid(num_points: int) -> np.ndarray:
    """Uniform grid over (-pi, pi) that contains 0 exactly."""
    return (np.arange(num_points) - num_points // 2) * (2.0 * np.pi / num_points)


def _project_nonincreasing(mags: np.ndarray) -> np.ndarray:
    """Row-wise least-squares projection of magnitudes onto m_0 >= m_1 >= ... >= 0.

    Uses the min-max form of isotonic regression,
    m_i = min_{j <= i} max_{k >= i} mean(mags[j..k]), which pools the same
    blocks as pool-adjacent-violators, for all rows at once. `mags` is (B, L)
    and nonnegative.
    """
    length = mags.shape[1]
    means = np.full(mags.shape + (length,), -np.inf)  # means[:, j, k] = mean(mags[:, j..k]), j <= k
    for j in range(length):
        for k in range(j, length):
            means[:, j, k] = mags[:, j:k + 1].mean(axis=1)
    return np.stack([means[:, :i + 1, i:].max(axis=2).min(axis=1) for i in range(length)], axis=1)


def _dictionary(offsets, geom: ArrayGeometry):
    """Steering columns at offsets (0, xi_1, -xi_1, xi_2, -xi_2, ...) and their real fit basis.

    Every candidate's analog matrix is a subset of these columns. The basis
    is the real parametrization of the baseband vector: c0 real (the global
    phase), then Re(c_i) on a(xi_i) + a(-xi_i) and Im(c_i) on
    j*(a(xi_i) - a(-xi_i)). It is returned stacked as [Re; Im], shape
    (2N, len(offsets)), in the same column order as the analog one.
    """
    analog = steering_matrix(offsets, geom)
    plus, minus = analog[:, 1::2], analog[:, 2::2]
    basis = np.empty_like(analog)
    basis[:, 0] = analog[:, 0]
    basis[:, 1::2] = plus + minus
    basis[:, 2::2] = 1j * (plus - minus)
    return analog, np.concatenate([basis.real, basis.imag])


def _coefficient_target(num_elements: int, delta: float) -> np.ndarray:
    """The flat-top target field reduced to its N array coefficients, stacked as [Re; Im].

    The target is unit in-band amplitude with the aperture-centered phase
    ramp, sampled on F = 16N uniform fit points over one period. Since F >= N,
    fit_resp @ fit_resp^H = (F/N) I_N, so fitting a pattern to the target over
    the F points and fitting its N coefficients to (N/F) fit_resp @ target
    have the same least-squares minimizer.
    """
    n = num_elements
    fit_points = 16 * n
    fit_grid = np.linspace(-np.pi, np.pi, fit_points, endpoint=False)
    target = np.where(np.abs(fit_grid) <= delta, np.exp(-1j * (n - 1) / 2 * fit_grid), 0.0)
    coeffs = steering_matrix(fit_grid, ArrayGeometry(n)) @ target * (n / fit_points)
    return np.concatenate([coeffs.real, coeffs.imag])


def _fit_weights(design: np.ndarray, target: np.ndarray, rcond: float) -> np.ndarray:
    """Minimum-norm least-squares real weights of stacked designs (B, 2N, q) against a target (2N,).

    Solved through the SVD of each design, dropping singular values at or
    below rcond times the largest as `np.linalg.lstsq` does: the columns of
    close xi offsets are nearly collinear, and a(xi) = a(-xi) when xi = pi
    makes a design rank deficient. The normal equations would square the
    condition number instead.
    """
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    keep = s > rcond * s[:, :1]
    scaled = np.divide(u.mT @ target, s, out=np.zeros_like(s), where=keep)
    return (vt.mT @ scaled[:, :, None])[:, :, 0]


def check_n_rf(n_rf: int) -> None:
    """Raise ValueError unless n_rf is 1 (a plain steering beam) or odd and >= 3.

    The analog offsets come in symmetric pairs around boresight, so a
    widebeam needs an odd number of RF chains.
    """
    if not (n_rf == 1 or (n_rf >= 3 and n_rf % 2 == 1)):
        raise ValueError(f"n_rf must be odd and >= 3 (or exactly 1), got {n_rf}")


def check_half_width(delta: float, num_elements: int, n_rf: int) -> None:
    """Raise ValueError unless a widebeam of half width delta can be synthesized on n_rf chains.

    One chain is a plain steering beam and needs no synthesis. Otherwise the
    synthesizer scores each candidate's sidelobe beyond delta + 2*pi/N on a
    pattern grid that ends at pi, so delta must stay below pi - 2*pi/N.
    """
    if n_rf != 1 and delta + 2.0 * np.pi / num_elements >= np.pi:
        raise ValueError(
            f"half width {delta:.6g} rad leaves no out-of-band sample at N={num_elements}: "
            f"it must be below pi - 2*pi/N = {np.pi - 2.0 * np.pi / num_elements:.6g} rad")


@lru_cache(maxsize=64)
def _synthesize_centered(num_elements: int, n_rf: int, delta: float):
    """Optimize a flat-top widebeam at boresight 0; returns (offsets, baseband, combined).

    Grid search over the symmetric column offsets xi_i in (0, 2*delta]; for each
    candidate, least-squares fit of the baseband weights to an ideal flat-top
    field (unit gain inside [-delta, delta], zero outside), projection onto the
    non-increasing magnitude ordering, then renormalization. Candidates whose
    pattern does not peak at the boresight are discarded; the winner maximizes
    the in-band minimum gain, ties broken by lowest peak sidelobe.

    Candidates are fitted SYNTH_BLOCK at a time on the N-coefficient form of
    the fit (`_coefficient_target`). Only four scores of each are kept, not
    its pattern, and the winner is fitted again to return its weights.
    """
    n = num_elements
    geom = ArrayGeometry(n)
    check_n_rf(n_rf)
    if n_rf == 1:
        return (0.0,), np.array([1.0 + 0.0j]), steering(0.0, geom)
    check_half_width(delta, n, n_rf)
    start = perf_counter()

    xi_values = np.linspace(2.0 * delta / XI_GRID_STEPS, 2.0 * delta, XI_GRID_STEPS)
    offsets = [0.0] + [s for xi in xi_values for s in (xi, -xi)]
    analog, basis = _dictionary(offsets, geom)
    target = _coefficient_target(n, delta)
    # the cutoff lstsq applies to the same fit on its 2F = 32N sample rows
    rcond = np.finfo(float).eps * 32 * n
    # each candidate's dictionary columns: 0, then 2j+1 and 2j+2 for each chosen xi_j, in
    # itertools.combinations order
    pairs = np.array(list(itertools.combinations(range(XI_GRID_STEPS), (n_rf - 1) // 2)))
    columns = np.concatenate([np.zeros((len(pairs), 1), dtype=int),
                              (1 + 2 * pairs[:, :, None] + np.arange(2)).reshape(len(pairs), -1)], axis=1)

    def fit(cols):
        """Unit-norm baseband and combined vectors of the candidates with columns `cols`, and their norms."""
        theta = _fit_weights(basis[:, cols].transpose(1, 0, 2), target, rcond)
        sign = np.where(theta[:, :1] >= 0, 1.0, -1.0)
        c = sign * (theta[:, 1::2] + 1j * theta[:, 2::2])
        size = np.abs(c)
        mags = _project_nonincreasing(np.concatenate([np.abs(theta[:, :1]), size], axis=1))
        c = c * np.divide(mags[:, 1:], size, out=np.zeros_like(size), where=size > 0)
        baseband = np.empty(cols.shape, dtype=complex)
        baseband[:, 0] = mags[:, 0]
        baseband[:, 1::2] = c
        baseband[:, 2::2] = c.conj()
        combined = (analog[:, cols].transpose(1, 0, 2) @ baseband[:, :, None])[:, :, 0]
        nrm = np.linalg.norm(combined, axis=1)
        safe = np.where(nrm < 1e-12, 1.0, nrm)[:, None]
        return baseband / safe, combined / safe, nrm

    eval_grid = _pattern_grid(EVAL_POINTS)
    eval_resp_h = steering_matrix(eval_grid, geom).conj().T
    in_band = np.abs(eval_grid) <= delta
    far_out = np.abs(eval_grid) > delta + 2.0 * np.pi / n
    boresight_gain, peak_gain, in_band_min, sidelobe = np.empty((4, len(columns)))
    usable = np.empty(len(columns), dtype=bool)
    for first in range(0, len(columns), SYNTH_BLOCK):
        block = slice(first, first + SYNTH_BLOCK)
        _, combined, nrm = fit(columns[block])
        patterns = np.abs(eval_resp_h @ combined.T) ** 2
        boresight_gain[block] = patterns[EVAL_POINTS // 2]
        peak_gain[block] = patterns.max(axis=0)
        in_band_min[block] = patterns[in_band].min(axis=0)
        sidelobe[block] = patterns[far_out].max(axis=0)
        usable[block] = nrm >= 1e-12

    ids = np.flatnonzero(usable)
    if not len(ids):
        raise SynthesisError(f"no usable widebeam candidate for N={n}, n_rf={n_rf}, delta={delta!r}")
    order = ids[np.lexsort((sidelobe[ids], -in_band_min[ids]))]
    eligible = order[boresight_gain[order] >= peak_gain[order] - 1e-12]
    winner = eligible[0] if len(eligible) else None
    idx = winner if winner is not None else order[0]
    baseband, combined, _ = fit(columns[idx:idx + 1])
    candidate = (tuple(offsets[c] for c in columns[idx]), baseband[0], combined[0])
    log.debug("widebeam N=%d n_rf=%d delta=%.6g: %d candidates, offsets %s, "
              "in-band min / boresight %.4g, sidelobe %.4g, %.3f s",
              n, n_rf, delta, len(columns), tuple(round(float(o), 6) for o in candidate[0]),
              in_band_min[idx] / boresight_gain[idx], sidelobe[idx], perf_counter() - start)
    if winner is None or in_band_min[winner] <= 0.5 * boresight_gain[winner]:
        raise SynthesisError(
            f"flat-top synthesis failed for N={n}, n_rf={n_rf}, delta={delta!r}: "
            f"in-band minimum {in_band_min[idx]:.4g} vs boresight {boresight_gain[idx]:.4g}",
            best=_make_precoder(0.0, delta, candidate, geom),
        )
    return candidate


def _make_precoder(boresight, delta, candidate, geom) -> WidebeamPrecoder:
    offsets, baseband, combined0 = candidate
    ramp = np.exp(1j * np.arange(geom.num_elements) * boresight)
    return WidebeamPrecoder(
        boresight=float(boresight),
        half_width=float(delta),
        offsets=offsets,
        analog_matrix=steering_matrix([boresight + o for o in offsets], geom),
        baseband_vector=baseband,
        combined=ramp * combined0,
        geometry=geom,
    )


def synthesize_widebeam(boresight: float, half_width: float, n_rf: int,
                        geometry: ArrayGeometry, allow_nonadequate: bool = False) -> WidebeamPrecoder:
    """Synthesize one flat-top widebeam at `boresight` with the given half width.

    The beam is optimized once at boresight 0 and translated by a per-element
    phase ramp, so patterns at different boresights are exact translates.
    """
    adequate, _ = is_adequate(half_width, geometry.num_elements)
    if not adequate and not allow_nonadequate:
        raise ValueError(
            f"half_width {half_width!r} is not k*pi/N for N={geometry.num_elements}; "
            "pass allow_nonadequate=True for a non-adequate beam"
        )
    candidate = _synthesize_centered(geometry.num_elements, n_rf, float(half_width))
    return _make_precoder(float(boresight), float(half_width), candidate, geometry)


def widebeam_grid(width: float, num_elements: int, num_beams: int | None = None,
                  k: int | None = None, delta_scale: float = 1.0) -> tuple:
    """Beam count and half width of a widebeam tiling of a span `width` rad wide.

    With `num_beams` given, the half width is the smallest adequate k*pi/N
    whose beamwidth 2*delta covers the spacing; otherwise k defaults to 2 and
    the beam count is the smallest that covers the span. `delta_scale` != 1
    scales the half width away from the adequate grid (the non-adequate
    baseline). A derived count may not exceed N: no adequate half width needs
    more over a span of at most 2*pi, so a larger count means `k` or
    `delta_scale` is out of range.
    """
    n = num_elements
    if not width > 0:
        raise ValueError(f"empty span: width {width!r} rad")
    if num_beams is not None and num_beams < 1:
        raise ValueError(f"num_beams must be >= 1, got {num_beams}")
    if k is None:
        k = (DEFAULT_ADEQUACY_K if num_beams is None
             else max(1, int(np.ceil(width / num_beams * n / (2.0 * np.pi) - 1e-9))))
    delta = delta_scale * k * np.pi / n
    if not 0 < delta < np.inf:
        raise ValueError(f"half width delta_scale * k * pi / N must be positive and finite, got "
                         f"{delta!r} from k = {k}, delta_scale = {delta_scale!r}")
    if num_beams is not None:
        return num_beams, delta
    spacings = width / (2.0 * delta) - 1e-9  # inf when delta is subnormal
    if spacings > n:
        raise ValueError(f"half width {delta!r} from k = {k}, delta_scale = {delta_scale!r} needs "
                         f"more than N = {n} beams to tile the span")
    return max(1, int(np.ceil(spacings))), delta


def build_widebeam_codebook(span_deg, geometry: ArrayGeometry, n_rf: int = DEFAULT_N_RF,
                            num_beams: int | None = None, k: int | None = None,
                            delta_scale: float = 1.0) -> WidebeamCodebook:
    """Tile an angular span with uniformly spaced widebeams of one half width.

    Boresights are uniform in spatial frequency and centered on the span
    (outermost beams half a spacing from the edges); `widebeam_grid` sets the
    beam count and the half width.
    """
    lo = angle_to_spatial(span_deg[0], geometry)
    hi = angle_to_spatial(span_deg[1], geometry)
    n = geometry.num_elements
    count, delta = widebeam_grid(hi - lo, n, num_beams, k, delta_scale)
    adequate, k_found = is_adequate(delta, n)
    boresights = lo + (np.arange(count) + 0.5) * ((hi - lo) / count)
    candidate = _synthesize_centered(n, n_rf, float(delta))
    beams = tuple(_make_precoder(g, delta, candidate, geometry) for g in boresights)
    return WidebeamCodebook(beams=beams, span=(lo, hi),
                            k=k_found if adequate else None, geometry=geometry)


def build_steering_codebook(span_deg, num_beams: int, geometry: ArrayGeometry) -> SteeringCodebook:
    """Uniform grid of narrow steering beams over a span (the grid-of-beams codebook)."""
    if num_beams < 1:
        raise ValueError(f"num_beams must be >= 1, got {num_beams}")
    lo = angle_to_spatial(span_deg[0], geometry)
    hi = angle_to_spatial(span_deg[1], geometry)
    if not hi > lo:
        raise ValueError(f"empty span {span_deg}")
    spacing = (hi - lo) / num_beams
    boresights = _read_only(lo + (np.arange(num_beams) + 0.5) * spacing)
    return SteeringCodebook(boresights=boresights,
                            matrix=steering_matrix(boresights, geometry),
                            geometry=geometry)


def build_abp(center: float, delta: float, geometry: ArrayGeometry) -> np.ndarray:
    """Auxiliary beam pair: the steering beams [a(center - delta), a(center + delta)], shape (N, 2), read-only."""
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return _read_only(np.stack([steering(center - delta, geometry),
                                steering(center + delta, geometry)], axis=1))


def _fmt(x) -> str:
    return repr(float(x))


def write_pattern_csv(path, precoder: np.ndarray, geometry: ArrayGeometry,
                      grid_points: int = 1024) -> None:
    """Write the power pattern of a precoder over the visible range as CSV."""
    grid = _pattern_grid(grid_points)
    power = beam_power_pattern(precoder, grid)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["spatial_freq_rad", "angle_deg", "power_linear", "power_db"])
        for sf, p in zip(grid, power):
            p_db = 10.0 * np.log10(max(p, 1e-300))
            writer.writerow([_fmt(sf), _fmt(spatial_to_angle(sf, geometry)), _fmt(p), _fmt(p_db)])


def write_codebook_csv(path, codebook: WidebeamCodebook) -> None:
    """Write one row per widebeam: boresight, half width, adequacy k, combined weights."""
    n = codebook.geometry.num_elements
    header = ["beam_index", "boresight_rad", "half_width_rad", "k"]
    header += [f"weights_re[{i}]" for i in range(n)] + [f"weights_im[{i}]" for i in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for idx, beam in enumerate(codebook.beams):
            row = [str(idx), _fmt(beam.boresight), _fmt(beam.half_width),
                   "" if codebook.k is None else str(codebook.k)]
            row += [_fmt(v) for v in beam.combined.real] + [_fmt(v) for v in beam.combined.imag]
            writer.writerow(row)
