import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beamalign import (
    ArrayGeometry,
    DegenerateSoundingError,
    angle_to_spatial,
    build_steering_codebook,
    build_widebeam_codebook,
    closed_form_powers,
    estimate_gob,
    estimate_gob_abp,
    estimate_two_stage,
    invert_ratio,
    make_rician,
    make_single_path,
    ratio_metric,
    spatial_to_angle,
    steering,
    steering_matrix,
)
from beamalign.estimators import PAIR_NULL_FRACTION, POWER_FLOOR, _refine, sound, sound_codebook
from beamalign.montecarlo import _cn

TX16 = ArrayGeometry(16)
TX32 = ArrayGeometry(32)
RX8 = ArrayGeometry(8)


def closed_form_ratio(mu, gamma, delta):
    return -np.sin(mu - gamma) * np.sin(delta) / (1 - np.cos(mu - gamma) * np.cos(delta))


# --- sounding ---------------------------------------------------------------

def infer(estimator, rows, codebook, snr, noise):
    """Sound a T = 1 block of receive rows (1, N) with noise (1, J) or None, then estimate its one draw."""
    return estimator(*(chi[0] for chi in sound_codebook(rows, codebook, snr, noise)), codebook)


def test_sound_noiseless_matched_beams():
    g = 0.8 - 0.3j
    alpha = g * np.sqrt(16 * 8)
    aods = np.array([17.0, -5.0, 33.0])
    for ch, beams in ((make_single_path(17.0, -42.0, g, TX16, RX8),
                       steering(angle_to_spatial(17.0, TX16), TX16)[:, None]),
                      (make_single_path(aods, [-42.0, 10.0, 0.0], [g] * 3, TX16, RX8),
                       steering_matrix(angle_to_spatial(aods, TX16), TX16).T[:, :, None])):
        chi = sound(ch.matched_row, beams, 4.0, None)
        assert chi.shape == (ch.trials, 1)
        assert chi == pytest.approx(np.full((ch.trials, 1), abs(2.0 * alpha) ** 2), rel=1e-12)


def test_sound_orthogonal_beam_is_null():
    tx = steering(2 * np.pi / 16, TX16)
    for aoas in ([0.0], [0.0, 40.0, -70.0]):
        ch = make_single_path(np.zeros(len(aoas)), aoas, np.ones(len(aoas)), TX16, RX8)
        assert np.all(sound(ch.matched_row, tx[:, None], 4.0, None) < 1e-24)


def test_sound_zero_snr_noise_variance():
    # with rho = 0 every power is the given noise's; the engine's CN(0, 1) draw has unit variance
    for trials in (1, 2):
        ch = make_single_path(np.zeros(trials), np.zeros(trials), np.ones(trials), ArrayGeometry(2), ArrayGeometry(2))
        beams = np.repeat(steering(0.0, ArrayGeometry(2))[:, None], 100_000, axis=1)
        noise = _cn(np.random.default_rng(123), trials, 100_000)
        chi = sound(ch.matched_row, beams, 0.0, noise)
        assert np.array_equal(chi, np.abs(noise) ** 2)
        assert np.mean(chi) == pytest.approx(1.0, rel=0.02)
        assert np.mean(noise.real ** 2) == pytest.approx(0.5, rel=0.02)


def test_sound_adds_one_noise_sample_per_sounding():
    beams = steering_matrix([-0.4, 0.1, 0.7], TX16)
    noise = np.array([[0.3 - 0.1j, -1.2j, 0.5], [0.2, 1.5 + 0.5j, -0.7j]])
    for trials in (1, 2):
        rows = make_single_path([12.0, -20.0][:trials], [-30.0, 5.0][:trials], [0.6 + 0.2j, 1.1][:trials],
                                TX16, RX8).matched_row
        expected = [np.abs(np.sqrt(3.0) * (rows[t] @ beams) + noise[t]) ** 2 for t in range(trials)]
        assert np.array_equal(sound(rows, beams, 3.0, noise[:trials]), expected)
        # a short or 1-D noise array must not broadcast
        for bad in (noise[:trials, :2], noise[:trials, :1], np.ones((trials, 4)), noise[0], noise[:trials - 1]):
            with pytest.raises(ValueError, match="one noise sample per sounding"):
                sound(rows, beams, 3.0, bad)


def test_sound_rejects_a_row_that_is_not_one_vector_of_the_beams_length(widebeams16, narrow16):
    """Receive rows that are not (T, N) for the beams' N, or per-draw beams of another T, fail where they enter."""
    aods = np.array([[10.0], [-20.0], [35.0]])
    block_rows = make_rician(13.5, aods, -aods, np.ones((3, 1)), TX16, RX8).matched_row
    beams = steering_matrix([-0.4, 0.1, 0.7], TX16)
    for bad in (block_rows[0], block_rows[:, :15], np.ones((3, 17), complex), block_rows[None], 1.0):
        for noise in (None, np.zeros((3, 3), complex)):
            with pytest.raises(ValueError, match=r"receive rows of shape \(T, 16\)"):
                sound(bad, beams, 3.0, noise)
    with pytest.raises(ValueError, match=r"beams of shape \(16, K\) or \(3, 16, K\)"):
        sound(block_rows, np.stack([beams] * 2), 3.0, None)
    for codebook in (widebeams16, narrow16):
        with pytest.raises(ValueError, match=r"receive rows of shape \(T, 16\)"):
            sound_codebook(block_rows[0], codebook, 100.0, None)


@settings(max_examples=300, deadline=None)
@given(trials=st.integers(1, 40), n=st.integers(1, 64), k=st.integers(1, 40), per_draw=st.booleans(),
       noisy=st.booleans(), snr=st.floats(0.0, 1e12), seed=st.integers(0, 2 ** 32 - 1))
def test_sound_is_each_rows_own_product_bytewise(trials, n, k, per_draw, noisy, snr, seed):
    """Row t of a block's powers is |sqrt(snr) * (rows[t] @ beams_t) + noise[t]|**2 of that row alone."""
    rng = np.random.default_rng(seed)
    rows, noise = _cn(rng, trials, n), _cn(rng, trials, k) if noisy else None
    beams = _cn(rng, trials * n, k).reshape(trials, n, k) if per_draw else _cn(rng, n, k)
    chi = sound(rows, beams, snr, noise)
    assert chi.shape == (trials, k)
    for t in range(trials):
        y = np.sqrt(snr) * (rows[t] @ (beams[t] if per_draw else beams))
        expected = np.abs(y + noise[t] if noisy else y) ** 2
        assert chi[t].tobytes() == expected.tobytes()


# --- ratio metric and inversion ---------------------------------------------

def test_ratio_metric_basic():
    assert ratio_metric(3.5, 3.5) == 0.0
    assert ratio_metric(2.0, 0.0) == 1.0
    assert ratio_metric(0.0, 2.0) == -1.0
    with pytest.raises(DegenerateSoundingError):
        ratio_metric(0.0, 0.0)
    with pytest.raises(ValueError):
        ratio_metric(-1.0, 2.0)


def test_ratio_metric_at_plus_edge():
    # noiseless powers for mu = gamma + delta give exactly -1
    delta = 2 * np.pi / 16
    mu = steering(delta, TX16)
    chi_minus = abs(np.vdot(steering(-delta, TX16), mu)) ** 2
    chi_plus = abs(np.vdot(steering(delta, TX16), mu)) ** 2
    assert ratio_metric(chi_minus, chi_plus) == pytest.approx(-1.0, abs=1e-12)


def test_ratio_metric_scale_invariance():
    chi = (0.8137205, 0.1962794)
    base = ratio_metric(*chi)
    for scale in [2.0 ** e for e in range(-40, 41, 8)]:
        assert ratio_metric(chi[0] * scale, chi[1] * scale) == base
    for scale in (3.7, 1e-12, 2.9e11):
        assert ratio_metric(chi[0] * scale, chi[1] * scale) == pytest.approx(base, abs=5e-16)


def test_invert_ratio_endpoints():
    for n, k, gamma in [(16, 2, 0.3), (16, 1, -0.7), (32, 2, 1.1), (8, 3, 0.0)]:
        delta = k * np.pi / n
        assert invert_ratio(0.0, delta, gamma) == gamma
        assert invert_ratio(-1.0, delta, gamma) == gamma + delta
        assert invert_ratio(1.0, delta, gamma) == gamma - delta


def test_invert_ratio_validates_delta():
    with pytest.raises(ValueError):
        invert_ratio(0.0, np.pi / 2, 0.0)
    with pytest.raises(ValueError):
        invert_ratio(0.0, 0.0, 0.0)


def test_invert_ratio_round_trip():
    rng = np.random.default_rng(31)
    for n, k in [(16, 2), (32, 2), (16, 1)]:
        delta = k * np.pi / n
        gamma = rng.uniform(-1.0, 1.0)
        mus = rng.uniform(gamma - delta, gamma + delta, 1000)
        for mu in mus:
            back = invert_ratio(closed_form_ratio(mu, gamma, delta), delta, gamma)
            assert abs(back - mu) < 1e-9


@st.composite
def pair_geometries(draw):
    """(N, k, gamma, mu): an adequate pair half width k*pi/N < pi/2 and mu in its inner 98%."""
    n = draw(st.integers(4, 128))
    k = draw(st.integers(1, (n - 1) // 2))  # k*pi/N < pi/2; even k needs N >= 6
    gamma = draw(st.floats(-np.pi, np.pi))
    offset = draw(st.floats(-0.98, 0.98))
    return n, k, gamma, gamma + offset * k * np.pi / n


@settings(max_examples=300, deadline=None)
@given(pair=pair_geometries())
def test_invert_ratio_round_trips_steering_powers(pair):
    n, k, gamma, mu = pair
    geom, delta = ArrayGeometry(n), k * np.pi / n
    # Both pair powers share the factor sin^2(N*d/2 + k*pi/2), d = mu - gamma, which
    # vanishes inside the pair (at d = 0 for even k). There both powers are rounding
    # noise and no ratio recovers mu, so the draw stays off those nulls.
    assume(abs(np.sin(0.5 * n * (mu - gamma) + 0.5 * k * np.pi)) > 1e-3)
    a = steering(mu, geom)
    chi_minus = abs(np.vdot(steering(gamma - delta, geom), a)) ** 2
    chi_plus = abs(np.vdot(steering(gamma + delta, geom), a)) ** 2
    assert abs(invert_ratio(ratio_metric(chi_minus, chi_plus), delta, gamma) - mu) <= 1e-9


def test_invert_ratio_clamps_out_of_range_zeta():
    delta = 2 * np.pi / 16
    assert invert_ratio(-1.2, delta, 0.0) == invert_ratio(-1.0, delta, 0.0)


def numpy_scalar_invert(zeta, delta, center):
    """invert_ratio's formula on np.float64 scalars, with np.sin, np.cos and np.sqrt."""
    z = min(max(float(zeta), -1.0), 1.0)
    if z == -1.0:
        return center + delta
    if z == 1.0:
        return center - delta
    sd, cd = np.sin(np.float64(delta)), np.cos(np.float64(delta))
    num = z * sd - z * np.sqrt(1.0 - z * z) * sd * cd
    den = sd * sd + z * z * cd * cd
    return center - float(np.arcsin(num / den))


def numpy_scalar_refine(chi_minus, chi_plus, delta, center, peak):
    """_refine on np.float64 powers: ratio_metric's clamped difference over sum, or 0 at a null or the floor."""
    chi_minus, chi_plus, peak = np.float64(chi_minus), np.float64(chi_plus), np.float64(peak)
    total = chi_minus + chi_plus
    if total > PAIR_NULL_FRACTION * peak and total >= POWER_FLOOR:
        zeta = float(min(max((chi_minus - chi_plus) / total, -1.0), 1.0))
    else:
        zeta = 0.0
    return zeta, numpy_scalar_invert(zeta, delta, center)


def as_bytes(*values):
    return np.array(values, dtype=float).tobytes()


HALF_WIDTHS = st.floats(0.0, np.pi / 2, exclude_min=True, exclude_max=True)
POWERS = st.one_of(st.just(0.0), st.floats(0.0, 1e-290), st.floats(0.0, 1e12))


@settings(max_examples=500, deadline=None)
@given(zeta=st.floats(-1.0, 1.0), delta=HALF_WIDTHS, center=st.floats(-4.0, 4.0))
@example(zeta=1.0, delta=0.2, center=0.5).via("saturated")
@example(zeta=-1.0, delta=0.2, center=0.5).via("saturated")
@example(zeta=0.0, delta=1e-200, center=0.5).via("sin(delta)**2 and zeta**2 underflow: 0/0")
def test_invert_ratio_matches_numpy_scalar_formula_bytewise(zeta, delta, center):
    with np.errstate(divide="ignore", invalid="ignore"):  # a subnormal delta at zeta 0 gives 0/0
        assert as_bytes(invert_ratio(zeta, delta, center)) == as_bytes(numpy_scalar_invert(zeta, delta, center))


@settings(max_examples=500, deadline=None)
@given(chi_minus=POWERS, chi_plus=POWERS, peak=st.one_of(POWERS, st.floats(1e12, 1e40)),
       delta=HALF_WIDTHS, center=st.floats(-4.0, 4.0))
@example(chi_minus=3.0, chi_plus=0.0, peak=3.0, delta=0.2, center=0.5).via("saturated ratio")
@example(chi_minus=0.0, chi_plus=2.0, peak=2.0, delta=0.2, center=0.5).via("saturated ratio")
@example(chi_minus=1e-25, chi_plus=2e-25, peak=1e3, delta=0.2, center=0.5).via("shared null")
@example(chi_minus=1e-301, chi_plus=1e-302, peak=1e-310, delta=0.2, center=0.5).via("power floor")
def test_refine_matches_numpy_scalar_formula_bytewise(chi_minus, chi_plus, peak, delta, center):
    """_refine and ratio_metric on float powers are the np.float64 formulas to the bit."""
    with np.errstate(divide="ignore", invalid="ignore"):  # a subnormal delta inverts 0/0 to nan
        got = _refine(chi_minus, chi_plus, delta, center, peak)
        assert as_bytes(*got) == as_bytes(*numpy_scalar_refine(chi_minus, chi_plus, delta, center, peak))
        if chi_minus + chi_plus >= POWER_FLOOR:
            expected = numpy_scalar_refine(chi_minus, chi_plus, delta, center, 0.0)[0]
            assert as_bytes(ratio_metric(chi_minus, chi_plus)) == as_bytes(expected)


# --- closed-form pair powers -------------------------------------------------

def test_closed_form_matches_inner_products():
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.choice([8, 16, 32]))
        k = int(rng.choice([1, 3])) if n == 8 else int(rng.choice([1, 3, 5]))
        delta = k * np.pi / n
        gamma = rng.uniform(-1.5, 1.5)
        mu = rng.uniform(gamma - delta, gamma + delta)
        snr = rng.uniform(0.1, 10.0)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        geom = ArrayGeometry(n)
        scale = snr * abs(alpha) ** 2 * n * n
        oracle_minus = scale * abs(np.vdot(steering(gamma - delta, geom), steering(mu, geom))) ** 2
        oracle_plus = scale * abs(np.vdot(steering(gamma + delta, geom), steering(mu, geom))) ** 2
        cf_minus, cf_plus = closed_form_powers(mu, gamma, delta, n, snr, alpha)
        ref = max(oracle_minus, oracle_plus)
        assert abs(cf_minus - oracle_minus) < 1e-10 * ref
        assert abs(cf_plus - oracle_plus) < 1e-10 * ref


def test_closed_form_ratio_identity():
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = 16
        delta = 1 * np.pi / n
        gamma = rng.uniform(-1.0, 1.0)
        mu = rng.uniform(gamma - delta, gamma + delta)
        cf_minus, cf_plus = closed_form_powers(mu, gamma, delta, n, 1.0, 1.0)
        zeta = (cf_minus - cf_plus) / (cf_minus + cf_plus)
        assert zeta == pytest.approx(closed_form_ratio(mu, gamma, delta), abs=1e-12)


def test_closed_form_symmetric_at_center():
    cf_minus, cf_plus = closed_form_powers(0.4, 0.4, np.pi / 16, 16, 2.0, 1.5)
    assert cf_minus == pytest.approx(cf_plus, rel=1e-12)


def test_closed_form_rejects_even_or_nonadequate():
    with pytest.raises(ValueError):
        closed_form_powers(0.0, 0.0, 2 * np.pi / 16, 16, 1.0, 1.0)
    with pytest.raises(ValueError):
        closed_form_powers(0.0, 0.0, 1.5 * np.pi / 16, 16, 1.0, 1.0)


# --- estimators ---------------------------------------------------------------

@pytest.fixture(scope="module")
def widebeams16():
    return build_widebeam_codebook((-50.0, 50.0), TX16)


@pytest.fixture(scope="module")
def narrow16():
    return build_steering_codebook((-50.0, 50.0), 16, TX16)


def test_two_stage_noiseless_exact(widebeams16):
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-50.0, 50.0, 200):
        ch = make_single_path(theta, rng.uniform(-90, 90), 1.0, TX16, RX8)
        report = infer(estimate_two_stage, ch.matched_row, widebeams16, 100.0, None)
        assert abs(angle_to_spatial(report.estimate_deg, TX16) - angle_to_spatial(theta, TX16)) < 1e-6
        assert abs(report.ratio_metric) <= 1.0


def test_two_stage_budget_32():
    cb = build_widebeam_codebook((-50.0, 50.0), TX32, num_beams=14)
    ch = make_single_path(10.0, 0.0, 1.0, TX32, RX8)
    infer(estimate_two_stage, ch.matched_row, cb, 10.0, _cn(np.random.default_rng(0), 1, 16))
    with pytest.raises(ValueError, match="noise"):  # J + 2 = 16 samples, not 15
        infer(estimate_two_stage, ch.matched_row, cb, 10.0, np.zeros((1, 15), complex))


def test_two_stage_degenerate_falls_back_to_boresight(widebeams16):
    ch = make_single_path(0.0, 0.0, 1.0, TX16, RX8)
    report = infer(estimate_two_stage, ch.matched_row, widebeams16, 0.0, None)  # all powers exactly zero
    assert report.ratio_metric == 0.0
    assert report.estimate_deg == spatial_to_angle(widebeams16.boresights[report.stage1_selection], TX16)


def test_gob_exact_on_boresight(narrow16):
    theta = spatial_to_angle(narrow16.boresights[5], TX16)
    ch = make_single_path(theta, 20.0, 1.0, TX16, RX8)
    report = infer(estimate_gob, ch.matched_row, narrow16, 50.0, None)
    assert report.estimate_deg == pytest.approx(theta, abs=1e-12)


def test_gob_noiseless_floor_matches_quadrature(narrow16):
    # independent oracle: numeric integration of distance to nearest boresight
    bores_deg = spatial_to_angle(narrow16.boresights, TX16)
    grid = np.linspace(-50.0, 50.0, 400_001)
    dist = np.abs(grid[:, None] - bores_deg[None, :]).min(axis=1)
    oracle = np.trapezoid(dist, grid) / 100.0

    rng = np.random.default_rng(8)
    errs = []
    for theta in rng.uniform(-50.0, 50.0, 1000):
        ch = make_single_path(theta, rng.uniform(-90, 90), 1.0, TX16, RX8)
        errs.append(abs(theta - infer(estimate_gob, ch.matched_row, narrow16, 100.0, None).estimate_deg))
    assert np.mean(errs) == pytest.approx(oracle, rel=0.03)


def test_gob_abp_exact_at_pair_midpoint(narrow16):
    mid = 0.5 * (narrow16.boresights[7] + narrow16.boresights[8])
    ch = make_single_path(spatial_to_angle(mid, TX16), 0.0, 1.0, TX16, RX8)
    report = infer(estimate_gob_abp, ch.matched_row, narrow16, 100.0, None)
    assert report.ratio_metric == pytest.approx(0.0, abs=1e-9)
    assert angle_to_spatial(report.estimate_deg, TX16) == pytest.approx(mid, abs=1e-9)


def test_gob_abp_beats_gob_noiseless(narrow16):
    rng = np.random.default_rng(9)
    gob_errs, abp_errs = [], []
    for theta in rng.uniform(-50.0, 50.0, 1000):
        ch = make_single_path(theta, rng.uniform(-90, 90), 1.0, TX16, RX8)
        gob_errs.append(abs(theta - infer(estimate_gob, ch.matched_row, narrow16, 100.0, None).estimate_deg))
        abp_errs.append(abs(theta - infer(estimate_gob_abp, ch.matched_row, narrow16, 100.0, None).estimate_deg))
    assert np.mean(abp_errs) < np.mean(gob_errs)


def test_gob_abp_edge_uses_single_neighbor(narrow16):
    ch = make_single_path(-49.9, 0.0, 1.0, TX16, RX8)
    report = infer(estimate_gob_abp, ch.matched_row, narrow16, 100.0, None)
    assert report.stage1_selection == 0
    assert -50.5 < report.estimate_deg < -40.0


def test_ratio_metric_bounded_on_noisy_trials(widebeams16):
    rng = np.random.default_rng(77)
    for _ in range(300):
        ch = make_single_path(rng.uniform(-50, 50), rng.uniform(-90, 90),
                              complex(*rng.standard_normal(2)) / np.sqrt(2), TX16, RX8)
        report = infer(estimate_two_stage, ch.matched_row, widebeams16, 1.0, _cn(rng, 1, 9))
        assert abs(report.ratio_metric) <= 1.0
        assert abs(report.estimate_deg) <= 90.0
