"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
The Monte Carlo criteria share module-scoped sweeps; each test asserts both
the numeric criterion and the stated runtime budget (fixture time included).
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from beamalign import (
    ArrayGeometry,
    build_steering_codebook,
    build_widebeam_codebook,
    closed_form_powers,
    estimate_gob,
    estimate_two_stage,
    invert_ratio,
    make_single_path,
    run_sweep,
    spatial_to_angle,
    steering,
    write_results_csv,
)
from beamalign.cli import bundled_config, load_config
from beamalign.montecarlo import _workspace


@contextmanager
def criterion(cid, label):
    start = time.perf_counter()
    try:
        yield
    except AssertionError:
        print(f"\n[acceptance] {cid} {label}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"\n[acceptance] {cid} {label}: PASS ({time.perf_counter() - start:.1f}s)")


def separation(worse_mean, worse_se, better_mean, better_se):
    """How many combined standard errors the worse mean exceeds the better one."""
    return (worse_mean - better_mean) / float(np.hypot(worse_se, better_se))


def timed_sweep(cfg, workers=2):
    start = time.perf_counter()
    curves = {c.estimator_id: c for c in run_sweep(cfg, workers=workers)}
    return curves, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig4_top():
    cfg = replace(load_config(bundled_config("fig4.cfg")), snr_grid_db=(32.5, 35.0))
    return (cfg,) + timed_sweep(cfg)


@pytest.fixture(scope="module")
def fig3_top():
    cfg = replace(load_config(bundled_config("fig3.cfg")), snr_grid_db=(30.0, 32.5, 35.0))
    return (cfg,) + timed_sweep(cfg)


@pytest.fixture(scope="module")
def fig5_high():
    cfg = replace(load_config(bundled_config("fig5.cfg")),
                  snr_grid_db=tuple(np.arange(10.0, 35.0 + 1e-9, 2.5)))
    return (cfg,) + timed_sweep(cfg)


@pytest.fixture(scope="module")
def fig6_pair():
    cfg = replace(load_config(bundled_config("fig6.cfg")), snr_grid_db=(25.0, 35.0))
    return (cfg,) + timed_sweep(cfg)


def test_c01_closed_form_oracle_equivalence():
    with criterion("C01", "closed-form pair powers match direct inner products"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240809)
        odd_k = {8: (1, 3), 16: (1, 3, 5, 7), 32: (1, 3, 5, 7, 9, 11, 13, 15)}
        worst = 0.0
        for _ in range(1000):
            n = int(rng.choice([8, 16, 32]))
            k = int(rng.choice(odd_k[n]))
            delta = k * np.pi / n
            gamma = rng.uniform(-1.5, 1.5)
            mu = rng.uniform(gamma - delta, gamma + delta)
            snr = rng.uniform(0.1, 10.0)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            geom = ArrayGeometry(n)
            scale = snr * abs(alpha) ** 2 * n * n
            oracle = np.array([
                scale * abs(np.vdot(steering(gamma - delta, geom), steering(mu, geom))) ** 2,
                scale * abs(np.vdot(steering(gamma + delta, geom), steering(mu, geom))) ** 2,
            ])
            closed = np.array(closed_form_powers(mu, gamma, delta, n, snr, alpha))
            worst = max(worst, float(np.max(np.abs(closed - oracle)) / np.max(oracle)))
        assert worst < 1e-10, f"worst relative deviation {worst:.3e}"
        assert time.perf_counter() - start < 1.0


def test_c02_ratio_metric_round_trip():
    with criterion("C02", "ratio-metric inversion round trip and endpoints"):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        for n, k in [(16, 2), (32, 2), (16, 1), (8, 3)]:
            delta = k * np.pi / n
            gamma = rng.uniform(-1.0, 1.0)
            for mu in rng.uniform(gamma - delta, gamma + delta, 250):
                zeta = -np.sin(mu - gamma) * np.sin(delta) / (1 - np.cos(mu - gamma) * np.cos(delta))
                assert abs(invert_ratio(zeta, delta, gamma) - mu) < 1e-9
            assert invert_ratio(0.0, delta, gamma) == gamma
            assert invert_ratio(-1.0, delta, gamma) == gamma + delta
            assert invert_ratio(+1.0, delta, gamma) == gamma - delta
        assert time.perf_counter() - start < 1.0


def test_c03_noiseless_exactness():
    with criterion("C03", "noiseless two-stage exactness and per-angle dominance"):
        start = time.perf_counter()
        tx, rx = ArrayGeometry(16), ArrayGeometry(8)
        widebeams = build_widebeam_codebook((-50.0, 50.0), tx)
        narrow = build_steering_codebook((-50.0, 50.0), 16, tx)
        rng = np.random.default_rng(404)
        two_errs, gob_errs = [], []
        for theta in rng.uniform(-50.0, 50.0, 1000):
            ch = make_single_path(theta, rng.uniform(-90.0, 90.0), 1.0, tx, rx)
            two_errs.append(abs(theta - estimate_two_stage(ch.matched_row[0], widebeams, 100.0, None).estimate_deg))
            gob_errs.append(abs(theta - estimate_gob(ch.matched_row[0], narrow, 100.0, None).estimate_deg))
        two_errs, gob_errs = np.array(two_errs), np.array(gob_errs)
        assert two_errs.mean() < 1e-3, f"mean noiseless error {two_errs.mean():.3e} deg"
        assert np.all(two_errs <= gob_errs)
        assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("n, k", [(16, 2), (16, 4), (32, 2), (32, 4)])
def test_c03_noiseless_exact_at_every_boresight(n, k):
    """At an even-k boresight both pair beams share a null; the estimate is the boresight itself."""
    with criterion("C03", f"noiseless two-stage exact at every boresight, N={n}, k={k}"):
        tx, rx = ArrayGeometry(n), ArrayGeometry(8)
        widebeams = build_widebeam_codebook((-50.0, 50.0), tx, k=k)
        for gamma in widebeams.boresights:
            theta = spatial_to_angle(float(gamma), tx)
            ch = make_single_path(theta, 20.0, 1.0, tx, rx)
            err = abs(theta - estimate_two_stage(ch.matched_row[0], widebeams, 100.0, None).estimate_deg)
            assert err < 1e-9, f"error {err:.3e} deg at boresight {theta:.4f} deg"


def test_c04_gob_quantization_floor(fig4_top):
    cfg, curves, sweep_s = fig4_top
    with criterion("C04", "grid-of-beams error at 35 dB matches the quadrature floor"):
        start = time.perf_counter()
        tx = ArrayGeometry(16)
        bores_deg = spatial_to_angle(build_steering_codebook((-50.0, 50.0), 16, tx).boresights, tx)
        grid = np.linspace(-50.0, 50.0, 2_000_001)
        dist = np.abs(grid[:, None] - bores_deg[None, :]).min(axis=1)
        oracle = np.trapezoid(dist, grid) / 100.0
        simulated = curves["gob_16"].mean_abs_error_deg[-1]
        assert abs(simulated - oracle) / oracle < 0.05, (
            f"simulated {simulated:.4f} vs oracle {oracle:.4f}")
        assert sweep_s + time.perf_counter() - start < 30.0 + 180.0  # shared fig4 sweep


def test_c05_fig4_ordering(fig4_top):
    cfg, curves, sweep_s = fig4_top
    with criterion("C05", "two-stage beats 16-beam GoB at high SNR on a 9-beam budget"):
        start = time.perf_counter()
        two, gob, abp = curves["two_stage_9"], curves["gob_16"], curves["gob_abp_16"]
        assert two.trials == 10000
        for i in (0, 1):  # the two highest grid points
            sep = separation(gob.mean_abs_error_deg[i], gob.std_error_deg[i],
                             two.mean_abs_error_deg[i], two.std_error_deg[i])
            assert sep >= 3.0, f"separation {sep:.1f} SE at {two.snr_db[i]} dB"
            assert two.mean_abs_error_deg[i] <= 1.3 * abp.mean_abs_error_deg[i]
        assert sweep_s + time.perf_counter() - start < 180.0


def test_c06_fig3_adequacy_gap(fig3_top):
    cfg, curves, sweep_s = fig3_top
    with criterion("C06", "non-adequate widebeams degrade and saturate at high SNR"):
        start = time.perf_counter()
        adequate = curves["two_stage_9"]
        nonadequate = curves["two_stage_nonadequate_9"]
        for i in range(3):  # 30, 32.5, 35 dB
            sep = separation(nonadequate.mean_abs_error_deg[i], nonadequate.std_error_deg[i],
                             adequate.mean_abs_error_deg[i], adequate.std_error_deg[i])
            assert sep >= 3.0, f"separation {sep:.1f} SE at {adequate.snr_db[i]} dB"
        flatness = nonadequate.mean_abs_error_deg[2] / nonadequate.mean_abs_error_deg[1]
        assert 0.9 <= flatness <= 1.1, f"flatness ratio {flatness:.3f}"
        assert sweep_s + time.perf_counter() - start < 180.0


def test_c07_fig5_same_budget_dominance(fig5_high):
    cfg, curves, sweep_s = fig5_high
    with criterion("C07", "same 16-sounding budget: two-stage dominates from 10 dB up"):
        start = time.perf_counter()
        two, gob, abp = curves["two_stage_16"], curves["gob_16"], curves["gob_abp_16"]
        for i, snr in enumerate(two.snr_db):
            for rival in (gob, abp):
                sep = separation(rival.mean_abs_error_deg[i], rival.std_error_deg[i],
                                 two.mean_abs_error_deg[i], two.std_error_deg[i])
                assert sep >= 3.0, (
                    f"{rival.estimator_id} separation {sep:.1f} SE at {snr} dB")
        assert sweep_s + time.perf_counter() - start < 300.0


def test_c08_fig6_rician_saturation(fig6_pair, fig5_high):
    _, rician_curves, rician_s = fig6_pair
    _, single_curves, single_s = fig5_high
    with criterion("C08", "Rician NLOS paths saturate every estimator at high SNR"):
        start = time.perf_counter()
        for curve in rician_curves.values():
            ratio = curve.mean_abs_error_deg[-1] / curve.mean_abs_error_deg[0]
            assert 0.8 <= ratio <= 1.25, f"{curve.estimator_id} ratio {ratio:.3f}"
        # the single-path run over the same grid keeps decreasing instead
        two = single_curves["two_stage_16"]
        i25 = two.snr_db.index(25.0)
        i35 = two.snr_db.index(35.0)
        single_ratio = two.mean_abs_error_deg[i35] / two.mean_abs_error_deg[i25]
        assert single_ratio < 0.8, f"single-path ratio {single_ratio:.3f}"
        assert rician_s + single_s + time.perf_counter() - start < 300.0


def test_c09_determinism_across_workers(tmp_path):
    with criterion("C09", "byte-identical results across worker counts and reruns"):
        start = time.perf_counter()
        cfg = replace(load_config(bundled_config("fig4.cfg")),
                      trials=500, snr_grid_db=(0.0, 15.0, 30.0))
        outputs = []
        for name, workers in (("w1.csv", 1), ("w8.csv", 8), ("w1_again.csv", 1)):
            curves = run_sweep(cfg, workers=workers)
            path = tmp_path / name
            write_results_csv(curves, path, cfg)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert time.perf_counter() - start < 60.0


def test_c10_codebook_accounting():
    with criterion("C10", "codebook sizes and sounding budgets match the stated counts"):
        fig4 = load_config(bundled_config("fig4.cfg"))
        fig5 = load_config(bundled_config("fig5.cfg"))
        ws4, ws5 = _workspace(fig4), _workspace(fig5)

        two4 = fig4.estimators[0]
        assert two4.kind == "two_stage"
        assert len(ws4.codebooks[0].beams) == 7
        assert two4.soundings == 9
        assert sorted(s.soundings for s in fig4.estimators) == [9, 16, 16]

        two5 = fig5.estimators[0]
        assert two5.kind == "two_stage"
        assert len(ws5.codebooks[0].beams) == 14
        assert two5.soundings == 16
        assert sorted(s.soundings for s in fig5.estimators) == [16, 16, 16, 32, 32]

        # the default builder reproduces the 7-beam tiling for 16 antennas
        assert len(build_widebeam_codebook((-50.0, 50.0), ArrayGeometry(16)).beams) == 7
