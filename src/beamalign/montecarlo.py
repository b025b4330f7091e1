"""Deterministic Monte Carlo engine: sweep SNR, run trials, aggregate error curves.

Seeding contract: the stream for any draw is derived solely from
(master_seed, domain, snr_index, trial_index) via numpy SeedSequence spawn
keys, where domain 0 is the channel draw shared by every estimator (common
random numbers) and domain e+1 is the sounding noise of estimator entry e.
Results are therefore bit-identical for any worker count and execution order.
"""

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .arrays import ArrayGeometry, angle_to_spatial
from .beams import (HalfWidthError, build_steering_codebook, build_widebeam_codebook, check_half_width,
                    check_n_rf, widebeam_grid)
from .channel import make_rician, make_single_path
from .estimators import estimate_gob, estimate_gob_abp, estimate_two_stage

__all__ = [
    "EstimatorSpec",
    "ExperimentConfig",
    "ErrorCurve",
    "run_trial",
    "run_sweep",
    "write_results_csv",
    "config_digest",
]

ESTIMATOR_KINDS = ("two_stage", "two_stage_nonadequate", "gob", "gob_abp")
CHANNEL_KINDS = ("single_path", "rician")
_CHANNEL_DOMAIN = 0
_TRIAL_BLOCK = 500


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator entry: for two_stage* `beams` is the widebeam count J
    (budget J + 2); for gob / gob_abp it is the codebook size (= budget)."""

    kind: str
    beams: int

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}; expected one of {ESTIMATOR_KINDS}")
        if self.beams < 1:
            raise ValueError(f"beams must be >= 1, got {self.beams}")

    @property
    def soundings(self) -> int:
        return self.beams + 2 if self.kind.startswith("two_stage") else self.beams

    @property
    def label(self) -> str:
        return f"{self.kind}_{self.soundings}"


@dataclass(frozen=True)
class ExperimentConfig:
    n_tot: int = 16
    m_tot: int = 8
    snr_grid_db: tuple = tuple(np.arange(-10.0, 35.0 + 1e-9, 2.5))
    trials: int = 10000
    aod_prior_deg: tuple = (-50.0, 50.0)
    aoa_prior_deg: tuple = (-90.0, 90.0)
    channel_kind: str = "single_path"
    estimators: tuple = (EstimatorSpec("two_stage", 7),
                         EstimatorSpec("gob", 16),
                         EstimatorSpec("gob_abp", 16))
    master_seed: int = 20240809
    n_rf: int = 5
    k_factor_db: float = 13.5
    num_paths: int = 4
    nonadequate_k: float = 1.5
    nlos_normalized: bool = False
    tx_spacing: float = 0.5
    rx_spacing: float = 0.5

    def __post_init__(self):
        for key in ("n_tot", "m_tot"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("tx_spacing", "rx_spacing"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        check_n_rf(self.n_rf)
        if self.channel_kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.channel_kind!r}; expected one of {CHANNEL_KINDS}")
        if not self.estimators:
            raise ValueError("at least one estimator entry is required")
        for prior in (self.aod_prior_deg, self.aoa_prior_deg):
            if not (-90.0 <= prior[0] < prior[1] <= 90.0):
                raise ValueError(f"prior {prior} must be an increasing interval within [-90, 90]")
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must hold at least one point")
        if not all(np.isfinite(self.snr_grid_db)):
            raise ValueError("snr grid must be finite")
        if any(b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ValueError("snr grid must be strictly increasing")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        if self.channel_kind == "rician" and self.num_paths < 1:
            raise ValueError("rician channels need num_paths >= 1")
        geometry = ArrayGeometry(self.n_tot, self.tx_spacing)
        width = (angle_to_spatial(self.aod_prior_deg[1], geometry)
                 - angle_to_spatial(self.aod_prior_deg[0], geometry))
        if width > 2.0 * np.pi:
            raise ValueError(f"tx_spacing = {self.tx_spacing} with aod_prior_deg = {self.aod_prior_deg} "
                             f"spans {width:.4g} rad, more than one 2*pi spatial period")
        for spec in self.estimators:
            if spec.kind.startswith("two_stage"):
                half = widebeam_grid(width, self.n_tot, **_widebeam_options(self, spec))[1]
            elif spec.kind == "gob_abp" and spec.beams > 1:
                half = 0.5 * width / spec.beams
            else:
                continue
            if not 0 < half < np.pi / 2:  # the domain of invert_ratio
                raise ValueError(f"{spec.kind} = {spec.beams}: pair half width {half:.6g} rad "
                                 f"over aod_prior_deg = {self.aod_prior_deg} is outside (0, pi/2)")
            if spec.kind.startswith("two_stage") and self.n_rf != 1:  # one chain needs no synthesis
                try:
                    check_half_width(half, self.n_tot)
                except HalfWidthError as exc:
                    raise ValueError(f"{spec.kind} = {spec.beams}: {exc}") from None


@dataclass(frozen=True)
class ErrorCurve:
    """Mean absolute angle error (degrees) per SNR point for one estimator."""

    estimator_id: str
    soundings: int
    trials: int
    snr_db: tuple
    mean_abs_error_deg: tuple
    std_error_deg: tuple

    def rows(self):
        for snr, mean, se in zip(self.snr_db, self.mean_abs_error_deg, self.std_error_deg):
            yield snr, mean, se, self.trials, self.soundings


def _widebeam_options(config: ExperimentConfig, spec: EstimatorSpec) -> dict:
    """build_widebeam_codebook keywords for a two-stage estimator entry."""
    if spec.kind == "two_stage_nonadequate":
        return dict(num_beams=spec.beams, k=1, delta_scale=config.nonadequate_k)
    return dict(num_beams=spec.beams)


class _Workspace:
    """Per-config cache of geometries and prebuilt codebooks."""

    def __init__(self, config: ExperimentConfig):
        self.geometry_tx = ArrayGeometry(config.n_tot, config.tx_spacing)
        self.geometry_rx = ArrayGeometry(config.m_tot, config.rx_spacing)
        self.codebooks = []
        for spec in config.estimators:
            if spec.kind.startswith("two_stage"):
                cb = build_widebeam_codebook(config.aod_prior_deg, self.geometry_tx, n_rf=config.n_rf,
                                             **_widebeam_options(config, spec))
            else:
                cb = build_steering_codebook(config.aod_prior_deg, spec.beams, self.geometry_tx)
            self.codebooks.append(cb)


_WORKSPACES: dict = {}


def _workspace(config: ExperimentConfig) -> _Workspace:
    ws = _WORKSPACES.get(config)
    if ws is None:
        ws = _Workspace(config)
        _WORKSPACES[config] = ws
    return ws


def _stream(master_seed: int, domain: int, snr_index: int, trial_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(domain, snr_index, trial_index))
    return np.random.default_rng(seq)


def _draw_channel(config: ExperimentConfig, ws: _Workspace, rng: np.random.Generator):
    if config.channel_kind == "rician":
        return make_rician(config.k_factor_db, config.num_paths, config.aod_prior_deg,
                           config.aoa_prior_deg, rng, ws.geometry_tx, ws.geometry_rx,
                           nlos_normalized=config.nlos_normalized)
    aod = rng.uniform(*config.aod_prior_deg)
    aoa = rng.uniform(*config.aoa_prior_deg)
    re, im = rng.standard_normal(2)
    return make_single_path(aod, aoa, complex(re, im) / np.sqrt(2.0),
                            ws.geometry_tx, ws.geometry_rx)


_ESTIMATE = {
    "two_stage": estimate_two_stage,
    "two_stage_nonadequate": estimate_two_stage,
    "gob": estimate_gob,
    "gob_abp": estimate_gob_abp,
}


def _trial_errors(ws, config, snr_index, trial_index):
    """Absolute angle error in degrees for one trial, per estimator entry.

    Estimator failures surface through the built-in fallbacks (center
    estimate), never as a dropped trial.
    """
    channel = _draw_channel(config, ws, _stream(config.master_seed, _CHANNEL_DOMAIN,
                                                snr_index, trial_index))
    snr = 10.0 ** (config.snr_grid_db[snr_index] / 10.0)
    out = np.empty(len(config.estimators))
    for ei, spec in enumerate(config.estimators):
        noise_rng = _stream(config.master_seed, ei + 1, snr_index, trial_index)
        report = _ESTIMATE[spec.kind](channel, ws.codebooks[ei], snr, noise_rng)
        out[ei] = abs(channel.aod_deg - report.estimate_deg)
    return out


def _resolve_estimator(config: ExperimentConfig, estimator_id: str) -> int:
    labels = [spec.label for spec in config.estimators]
    if estimator_id in labels:
        return labels.index(estimator_id)
    kind_hits = [i for i, spec in enumerate(config.estimators) if spec.kind == estimator_id]
    if len(kind_hits) == 1:
        return kind_hits[0]
    raise ValueError(f"estimator {estimator_id!r} not found (entries: {labels})")


def run_trial(config: ExperimentConfig, estimator_id: str, snr_db: float, trial_index: int) -> float:
    """Run one estimator on one trial; returns |theta - theta_hat| in degrees."""
    matches = np.nonzero(np.isclose(config.snr_grid_db, snr_db, rtol=0, atol=1e-9))[0]
    if len(matches) != 1:
        raise ValueError(f"snr_db {snr_db} is not a point of the configured grid")
    ei = _resolve_estimator(config, estimator_id)
    return float(_trial_errors(_workspace(config), config, int(matches[0]), trial_index)[ei])


def _run_block(args):
    config, snr_index, start, stop = args
    ws = _workspace(config)
    block = np.empty((stop - start, len(config.estimators)))
    for t in range(start, stop):
        block[t - start] = _trial_errors(ws, config, snr_index, t)
    return snr_index, start, block


def run_sweep(config: ExperimentConfig, workers: int = 1):
    """Run every (estimator, SNR, trial) cell; returns one ErrorCurve per estimator.

    Work is split into fixed trial blocks; results are placed by index, so the
    output is bit-identical for any `workers` value.
    """
    _workspace(config)  # synthesize codebooks up front so failures surface here
    n_snr, n_trials = len(config.snr_grid_db), config.trials
    errors = np.empty((n_snr, n_trials, len(config.estimators)))
    tasks = [(config, si, start, min(start + _TRIAL_BLOCK, n_trials))
             for si in range(n_snr) for start in range(0, n_trials, _TRIAL_BLOCK)]
    if workers <= 1:
        results = map(_run_block, tasks)
        for si, start, block in results:
            errors[si, start:start + len(block)] = block
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for si, start, block in pool.map(_run_block, tasks, chunksize=1):
                errors[si, start:start + len(block)] = block

    curves = []
    for ei, spec in enumerate(config.estimators):
        per_snr = errors[:, :, ei]
        means = per_snr.mean(axis=1)
        if n_trials > 1:
            std_err = per_snr.std(axis=1, ddof=1) / np.sqrt(n_trials)
        else:
            std_err = np.zeros(n_snr)
        curves.append(ErrorCurve(estimator_id=spec.label, soundings=spec.soundings,
                                 trials=n_trials, snr_db=tuple(config.snr_grid_db),
                                 mean_abs_error_deg=tuple(means.tolist()),
                                 std_error_deg=tuple(std_err.tolist())))
    return curves


def config_digest(config: ExperimentConfig) -> str:
    """Stable short hash of the full configuration."""
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def write_results_csv(curves, path, config: ExperimentConfig) -> None:
    """Write the result table with reproducibility metadata as header comments."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# beamalign {__version__}\n")
        fh.write(f"# master_seed = {config.master_seed}\n")
        fh.write(f"# config_sha256 = {config_digest(config)}\n")
        writer = csv.writer(fh)
        writer.writerow(["estimator", "snr_db", "mean_abs_error_deg",
                         "std_error_deg", "trials", "soundings"])
        for curve in curves:
            for snr, mean, se, trials, soundings in curve.rows():
                writer.writerow([curve.estimator_id, repr(float(snr)), repr(float(mean)),
                                 repr(float(se)), str(trials), str(soundings)])
