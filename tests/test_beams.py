import csv
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from beamalign import beams
from beamalign import (
    ArrayGeometry,
    SynthesisError,
    angle_to_spatial,
    beam_power_pattern,
    build_abp,
    build_steering_codebook,
    build_widebeam_codebook,
    is_adequate,
    steering,
    steering_matrix,
    synthesize_widebeam,
    write_codebook_csv,
    write_pattern_csv,
)

GEOM16 = ArrayGeometry(16)
GEOM32 = ArrayGeometry(32)


def eval_grid(points=2048):
    return (np.arange(points) - points // 2) * (2 * np.pi / points)


def test_is_adequate():
    assert is_adequate(np.pi / 16, 16) == (True, 1)
    assert is_adequate(2 * np.pi / 16, 16) == (True, 2)
    assert is_adequate(1.5 * np.pi / 16, 16) == (False, None)
    for delta in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            is_adequate(delta, 16)


def test_pattern_of_steering_beam():
    mu0 = 0.55
    pattern = beam_power_pattern(steering(mu0, GEOM16), [mu0, mu0 + 2 * np.pi / 16])
    assert pattern[0] == pytest.approx(1.0, abs=1e-12)
    assert pattern[1] < 1e-20


def test_pattern_rejects_non_unit_precoder():
    with pytest.raises(ValueError):
        beam_power_pattern(np.ones(16), [0.0])


def test_pattern_integral_is_parseval():
    # integral over a full period equals 2*pi/N for any unit-norm precoder
    rng = np.random.default_rng(2)
    grid = eval_grid(4096)
    step = 2 * np.pi / 4096
    for _ in range(5):
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v /= np.linalg.norm(v)
        integral = beam_power_pattern(v, grid).sum() * step
        assert integral == pytest.approx(2 * np.pi / 16, rel=1e-9)


def test_synthesize_flat_top_16():
    beam = synthesize_widebeam(0.0, 2 * np.pi / 16, 5, GEOM16)
    grid = eval_grid()
    pattern = beam_power_pattern(beam.combined, grid)
    boresight = pattern[len(grid) // 2]
    in_band = pattern[np.abs(grid) <= beam.half_width]
    assert np.argmax(pattern) == len(grid) // 2
    assert in_band.min() >= 0.5 * boresight
    assert abs(np.linalg.norm(beam.combined) - 1.0) < 1e-12


def test_synthesize_pattern_symmetry():
    beam = synthesize_widebeam(0.0, 2 * np.pi / 16, 5, GEOM16)
    grid = np.linspace(0.01, np.pi - 0.01, 500)
    fwd = beam_power_pattern(beam.combined, grid)
    mirrored = beam_power_pattern(beam.combined, -grid)
    assert np.max(np.abs(fwd - mirrored)) < 1e-6


def test_synthesize_single_chain_fallback():
    gamma = 0.83
    beam = synthesize_widebeam(gamma, np.pi / 16, 1, GEOM16)
    np.testing.assert_allclose(beam.combined, steering(gamma, GEOM16), atol=1e-15)


def test_synthesize_translation_equivariance():
    gamma = angle_to_spatial(23.0, GEOM16)
    centered = synthesize_widebeam(0.0, 2 * np.pi / 16, 5, GEOM16)
    shifted = synthesize_widebeam(gamma, 2 * np.pi / 16, 5, GEOM16)
    grid = eval_grid(512)
    np.testing.assert_allclose(
        beam_power_pattern(shifted.combined, grid),
        beam_power_pattern(centered.combined, grid - gamma),
        atol=1e-8,
    )


def test_combined_is_analog_times_baseband():
    for gamma in (0.0, 0.9, angle_to_spatial(-37.0, GEOM16)):
        beam = synthesize_widebeam(gamma, 2 * np.pi / 16, 5, GEOM16)
        product = beam.analog_matrix @ beam.baseband_vector
        np.testing.assert_allclose(beam.combined, product, atol=1e-12)


def test_synthesize_baseband_structure():
    beam = synthesize_widebeam(0.0, 2 * np.pi / 16, 5, GEOM16)
    mags = np.abs(beam.baseband_vector)
    # layout [c0, c1, c1*, c2, c2*] with non-increasing magnitudes
    assert beam.baseband_vector[2] == np.conj(beam.baseband_vector[1])
    assert beam.baseband_vector[4] == np.conj(beam.baseband_vector[3])
    assert mags[0] >= mags[1] - 1e-12 >= mags[3] - 1e-12
    # analog columns keep constant-modulus entries 1/sqrt(N)
    assert np.max(np.abs(np.abs(beam.analog_matrix) - 1 / 4.0)) < 1e-12


def test_synthesize_rejects_bad_n_rf():
    with pytest.raises(ValueError):
        synthesize_widebeam(0.0, 2 * np.pi / 16, 4, GEOM16)
    with pytest.raises(ValueError):
        synthesize_widebeam(0.0, 1.5 * np.pi / 16, 5, GEOM16)  # non-adequate without flag


def test_synthesize_failure_carries_best_candidate():
    with pytest.raises(SynthesisError) as exc_info:
        synthesize_widebeam(0.0, 5 * np.pi / 16, 3, GEOM16)
    best = exc_info.value.best
    assert best is not None
    assert abs(np.linalg.norm(best.combined) - 1.0) < 1e-12


# Synthesizer outputs recorded from the per-candidate 2F-row lstsq synthesizer:
# (N, n_rf, delta) -> (offsets, baseband). Combined weights are a(offsets) @ baseband.
PINNED_BEAMS = {
    (16, 5, 2 * np.pi / 16): (
        (0.0, 0.1636246173744684, -0.1636246173744684, 0.5890486225480862, -0.5890486225480862),
        [(1.473005179575327+0j), (-0.4962404989931123+1.3868992848129988j),
         (-0.4962404989931123-1.3868992848129988j), (0.027178655384615863-0.08959601951606119j),
         (0.027178655384615863+0.08959601951606119j)]),
    (16, 5, 1.5 * np.pi / 16): (
        (0.0, 0.14726215563702155, -0.14726215563702155, 0.36815538909255385, -0.36815538909255385),
        [(1.1819913066632506+0j), (-0.5314366830290501+1.055783358913456j),
         (-0.5314366830290501-1.055783358913456j), (0.18958045061332482+0.0758147764783488j),
         (0.18958045061332482-0.0758147764783488j)]),
    (32, 5, 2 * np.pi / 32): (
        (0.0, 0.0818123086872342, -0.0818123086872342, 0.2945243112740431, -0.2945243112740431),
        [(1.478780128904161+0j), (-0.44083001282352635+1.4115451000360622j),
         (-0.44083001282352635-1.4115451000360622j), (0.012202335342571109-0.0822614629468567j),
         (0.012202335342571109+0.0822614629468567j)]),
    (32, 7, 2 * np.pi / 32): (
        (0.0, 0.21271200258680895, -0.21271200258680895, 0.26179938779914946, -0.26179938779914946,
         0.2781618495365963, -0.2781618495365963),
        [(0.7014531691784397+0j), (-0.6929957368182585+0.10859768552872372j),
         (-0.6929957368182585-0.10859768552872372j), (0.4270176336517705-0.556500214825582j),
         (0.4270176336517705+0.556500214825582j), (-0.216307392673909+0.5103620336688403j),
         (-0.216307392673909-0.5103620336688403j)]),
    (16, 3, 5 * np.pi / 16): (  # no candidate meets the flat-top floor: SynthesisError.best
        (0.0, 0.8999353955595762, -0.8999353955595762),
        [(0.6765883721079611+0j), (0.3887149396485528-0.19566265789911708j),
         (0.3887149396485528+0.19566265789911708j)]),
}


@pytest.mark.parametrize("case", PINNED_BEAMS, ids=lambda c: f"N{c[0]}-rf{c[1]}-{c[2] * c[0] / np.pi:g}pi")
def test_synthesis_matches_pinned_beams(case):
    n, n_rf, delta = case
    geom = ArrayGeometry(n)
    if n_rf == 3:
        with pytest.raises(SynthesisError) as exc_info:
            synthesize_widebeam(0.0, delta, n_rf, geom)
        beam = exc_info.value.best
    else:
        beam = synthesize_widebeam(0.0, delta, n_rf, geom, allow_nonadequate=True)
    offsets, baseband = PINNED_BEAMS[case]
    assert beam.offsets == offsets
    np.testing.assert_allclose(beam.baseband_vector, baseband, rtol=0, atol=1e-12)
    np.testing.assert_allclose(beam.combined, steering_matrix(offsets, geom) @ np.array(baseband),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, n_rf", [(16, 5), (32, 7)])
def test_coefficient_fit_matches_sample_fit(n, n_rf):
    # the 2N-row fit on the array coefficients has the minimizer of the 2F-row fit on the pattern
    rng = np.random.default_rng(n * n_rf)
    geom = ArrayGeometry(n)
    delta = 2 * np.pi / n
    fit_grid = np.linspace(-np.pi, np.pi, 16 * n, endpoint=False)
    target = np.where(np.abs(fit_grid) <= delta, np.exp(-1j * (n - 1) / 2 * fit_grid), 0.0)
    fit_resp_h = steering_matrix(fit_grid, geom).conj().T
    fitted = 0
    while fitted < 20:
        xi = np.sort(rng.uniform(0.0, 2 * delta, (n_rf - 1) // 2))
        # offsets closer than pi/N make the columns nearly collinear; any two least-squares
        # solvers then differ by up to cond * eps, so the comparison keeps them apart
        if np.diff(xi, prepend=0.0).min() < np.pi / n:
            continue
        fitted += 1
        _, basis = beams._dictionary([0.0] + [s for x in xi for s in (x, -x)], geom)
        resp = fit_resp_h @ (basis[:n] + 1j * basis[n:])
        expected, *_ = np.linalg.lstsq(np.vstack([resp.real, resp.imag]),
                                       np.concatenate([target.real, target.imag]), rcond=None)
        theta = beams._fit_weights(basis[None], beams._coefficient_target(n, delta),
                                   np.finfo(float).eps * 32 * n)[0]
        np.testing.assert_allclose(theta, expected, rtol=0, atol=1e-12)


def _pool_adjacent_violators(mags):
    """Scalar reference: least-squares projection onto m_0 >= m_1 >= ... >= 0."""
    blocks = []
    for m in mags:
        blocks.append([float(m), 1])
        while len(blocks) > 1 and blocks[-2][0] < blocks[-1][0]:
            total = blocks[-2][0] * blocks[-2][1] + blocks[-1][0] * blocks[-1][1]
            count = blocks[-2][1] + blocks[-1][1]
            blocks[-2:] = [[total / count, count]]
    return [max(mean, 0.0) for mean, count in blocks for _ in range(count)]


@pytest.mark.parametrize("length", [1, 2, 4, 7])
def test_rowwise_projection_matches_pool_adjacent_violators(length):
    rng = np.random.default_rng(length)
    mags = np.abs(rng.standard_normal((300, length)))
    mags[:100] = np.sort(mags[:100], axis=1)[:, ::-1]  # already non-increasing
    mags[100:150] = mags[100:150, :1]  # all equal
    expected = [_pool_adjacent_violators(row) for row in mags]
    np.testing.assert_allclose(beams._project_nonincreasing(mags), expected, rtol=1e-15, atol=0)


def test_synthesis_memory_is_bounded():
    # all 2024 candidates of N=32, n_rf=7 must never be held at once
    tracemalloc.start()
    try:
        beams._synthesize_centered.__wrapped__(32, 7, 2 * np.pi / 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


@pytest.mark.parametrize("k", [14, 16])
def test_synthesize_rejects_half_width_without_out_of_band_sample(k, monkeypatch):
    def no_fit(*args):
        raise AssertionError("a candidate was fitted")

    monkeypatch.setattr(beams, "_fit_weights", no_fit)
    with pytest.raises(ValueError, match=rf"half width {k * np.pi / 16:.6g} rad .* "
                                         r"below pi - 2\*pi/N = 2\.74889 rad"):
        synthesize_widebeam(0.0, k * np.pi / 16, 5, GEOM16)


def test_check_half_width_exempts_one_chain():
    """One RF chain is a plain steering beam, so no half width is too wide for it."""
    beams.check_half_width(np.pi, 16, 1)
    with pytest.raises(ValueError, match=r"below pi - 2\*pi/N"):
        beams.check_half_width(np.pi, 16, 3)


def test_synthesis_logs_one_debug_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="beamalign"):
        beams._synthesize_centered.__wrapped__(16, 5, 2 * np.pi / 16)
    lines = [r.getMessage() for r in caplog.records if r.name == "beamalign.beams"]
    assert len(lines) == 1
    assert lines[0].startswith("widebeam N=16 n_rf=5 delta=0.392699: 276 candidates, "
                               "offsets (0.0, 0.163625, -0.163625, 0.589049, -0.589049)")


def test_codebook_default_counts_16():
    cb = build_widebeam_codebook((-50.0, 50.0), GEOM16)
    assert len(cb.beams) == 7
    assert cb.k == 2
    assert cb.half_width == pytest.approx(2 * np.pi / 16)


def test_codebook_explicit_count_32():
    cb = build_widebeam_codebook((-50.0, 50.0), GEOM32, num_beams=14)
    assert len(cb.beams) == 14
    assert cb.k == 2
    assert cb.half_width == pytest.approx(2 * np.pi / 32)


def test_codebook_narrow_span_single_beam():
    cb = build_widebeam_codebook((-1.0, 1.0), GEOM16)
    assert len(cb.beams) == 1


def test_codebook_invariants():
    for cb in (build_widebeam_codebook((-50.0, 50.0), GEOM16),
               build_widebeam_codebook((-50.0, 50.0), GEOM32, num_beams=14)):
        n = cb.geometry.num_elements
        assert abs(cb.half_width * n / np.pi - round(cb.half_width * n / np.pi)) < 1e-9
        bores = cb.boresights
        spacing = np.diff(bores)
        assert np.allclose(spacing, spacing[0], atol=1e-12)
        for beam in cb.beams:
            assert abs(np.linalg.norm(beam.combined) - 1.0) < 1e-12
        # coverage: every point of the span is inside some beam
        lo, hi = cb.span
        for mu in np.linspace(lo, hi, 2001):
            assert np.min(np.abs(bores - mu)) <= cb.half_width + 1e-12


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 64), spacing=st.floats(0.05, 1.0),
       span=st.lists(st.floats(-90.0, 90.0), min_size=2, max_size=2, unique=True).map(sorted),
       count=st.integers(1, 64), by_k=st.booleans())
def test_codebook_covers_its_span(n, spacing, span, count, by_k):
    """Every point of the span lies within one half width of a boresight, whichever count sets the tiling.

    With both num_beams and k given, coverage is the caller's choice, so
    only one is drawn. The farthest points from the boresights are the span
    edges and the midpoints between neighbours.
    """
    geom = ArrayGeometry(n, spacing)
    options = {"k": count} if by_k else {"num_beams": count}
    width = angle_to_spatial(span[1], geom) - angle_to_spatial(span[0], geom)
    try:
        beams.widebeam_grid(width, n, **options)
    except ValueError:
        reject()
    cb = build_widebeam_codebook(tuple(span), geom, n_rf=1, **options)  # one chain: nothing synthesized
    bores = cb.boresights
    farthest = np.concatenate([cb.span, 0.5 * (bores[:-1] + bores[1:])])
    assert np.abs(farthest[:, None] - bores).min(axis=1).max() <= cb.half_width * (1 + 1e-9)


def test_codebook_nonadequate_variant():
    cb = build_widebeam_codebook((-50.0, 50.0), GEOM16, num_beams=7, k=1, delta_scale=1.5)
    assert cb.k is None
    assert cb.half_width == pytest.approx(1.5 * np.pi / 16)
    assert len(cb.beams) == 7


def test_codebook_rejects_bad_span():
    with pytest.raises(ValueError):
        build_widebeam_codebook((50.0, -50.0), GEOM16)
    with pytest.raises(ValueError):
        build_widebeam_codebook((-95.0, 50.0), GEOM16)


def test_steering_codebook_layout():
    cb = build_steering_codebook((-50.0, 50.0), 16, GEOM16)
    assert cb.num_beams == 16
    lo = angle_to_spatial(-50.0, GEOM16)
    hi = angle_to_spatial(50.0, GEOM16)
    spacing = (hi - lo) / 16
    np.testing.assert_allclose(cb.boresights, lo + (np.arange(16) + 0.5) * spacing, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(cb.matrix, axis=0), 1.0, atol=1e-12)


def test_build_abp():
    pair = build_abp(0.0, np.pi / 16, GEOM16)
    assert pair.shape == (16, 2)
    assert not pair.flags.writeable
    assert np.array_equal(pair[:, 0], steering(-np.pi / 16, GEOM16))
    assert np.array_equal(pair[:, 1], steering(np.pi / 16, GEOM16))
    # at center 0 the two beams are entrywise conjugate mirrors
    np.testing.assert_allclose(pair[:, 0], np.conj(pair[:, 1]), atol=1e-15)
    with pytest.raises(ValueError):
        build_abp(0.0, 0.0, GEOM16)


def test_codebook_pairs_are_one_stacked_read_only_array():
    """`pairs` stacks each beam's `build_abp` pair into one (J, N, 2) array, so the engine gathers it by index."""
    cb = build_widebeam_codebook((-50.0, 50.0), GEOM32, num_beams=14)
    assert cb.pairs.shape == (14, 32, 2)
    assert not cb.pairs.flags.writeable
    assert cb.pairs is cb.pairs
    for j, beam in enumerate(cb.beams):
        assert cb.pairs[j].tobytes() == build_abp(beam.boresight, cb.half_width, GEOM32).tobytes()


def test_pattern_csv_export(tmp_path):
    beam = synthesize_widebeam(0.0, 2 * np.pi / 16, 5, GEOM16)
    path = tmp_path / "pattern.csv"
    write_pattern_csv(path, beam.combined, GEOM16, grid_points=512)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["spatial_freq_rad", "angle_deg", "power_linear", "power_db"]
    assert len(rows) == 513
    powers = np.array([float(r[2]) for r in rows[1:]])
    sfs = np.array([float(r[0]) for r in rows[1:]])
    assert abs(sfs[np.argmax(powers)]) <= 2 * np.pi / 512 + 1e-12


def test_codebook_csv_export(tmp_path):
    cb = build_widebeam_codebook((-50.0, 50.0), GEOM16)
    path = tmp_path / "codebook.csv"
    write_codebook_csv(path, cb)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["beam_index", "boresight_rad", "half_width_rad", "k"]
    assert rows[0][4] == "weights_re[0]"
    assert rows[0][-1] == "weights_im[15]"
    assert len(rows) == 8
    assert all(r[3] == "2" for r in rows[1:])
    # weights round-trip to the stored combined precoder
    w = np.array([float(v) for v in rows[1][4:20]]) + 1j * np.array([float(v) for v in rows[1][20:]])
    np.testing.assert_allclose(w, cb.beams[0].combined, atol=0)
