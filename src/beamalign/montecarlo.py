"""Deterministic Monte Carlo engine: sweep SNR, run trials, aggregate error curves.

Seeding contract v2 (`SEEDING_CONTRACT`): trials come in fixed blocks of
`_TRIAL_BLOCK`, and each (domain, SNR index, block) owns one stream,
`_stream(master_seed, domain, snr_index, block_index)`. Domain 0 is the
channel draw shared by every estimator (common random numbers) and domain
e + 1 is the sounding noise of estimator entry e. A block runs its first
`count` rows (all `_TRIAL_BLOCK` but in the last block), trial t being row
t % _TRIAL_BLOCK of block t // _TRIAL_BLOCK, drawn in a fixed order:

- channel: AoDs, then AoAs, then CN(0, 1) gains, each (_TRIAL_BLOCK, P), with
  P = num_paths for Rician channels and 1 for single-path ones. The full
  arrays are drawn, since the AoAs start where all the block's AoDs end;
- estimator entry e: CN(0, 1) noise, (count, soundings), one combined sample
  per sounding (see `estimators`). This is the stream's only draw, filled
  row by row, so its first `count` rows are the bytes a full-block draw
  would start with.

So a trial's draws depend on neither `trials` nor the worker count, and
results are bit-identical for any execution order.

A block's channels are one realization of `count` draws (see `channel`,
where every realization is a block), and each estimator entry sounds the
whole block at once (`estimators.sound_codebook`). Every cell still makes
one `estimate_*` call, which infers draw t from row t of the entry's
powers. `channel` and `estimators.sound` state why each row is byte for
byte the one a per-trial build and sounding give, which keeps contract v2.
"""

import csv
import functools
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .arrays import ArrayGeometry, angle_to_spatial
from .beams import build_steering_codebook, build_widebeam_codebook, check_half_width, check_n_rf, widebeam_grid
from .channel import make_rician, make_single_path
from .estimators import estimate_gob, estimate_gob_abp, estimate_two_stage, sound_codebook

_ESTIMATE = {
    "two_stage": estimate_two_stage,
    "two_stage_nonadequate": estimate_two_stage,
    "gob": estimate_gob,
    "gob_abp": estimate_gob_abp,
}
ESTIMATOR_KINDS = tuple(_ESTIMATE)
CHANNEL_KINDS = ("single_path", "rician")
SEEDING_CONTRACT = 2  # stamped in config_digest and the CSV header; bump when any draw changes
_TRIAL_BLOCK = 500
# bound on run_sweep's (SNR points x trials x entries) float64 error array: 2 GiB
_MAX_ERROR_VALUES = 2 ** 28
# bound on every [estimators] count: a codebook holds N x count weights and a
# block's noise draw 500 x soundings samples (about 33 MB at this bound)
_MAX_BEAMS = 4096
# bound on each complex array a channel block holds: the (500, m_tot, n_tot)
# matrix (matrix() keeps a second one as its term buffer) and the
# (500, num_paths, n_tot + m_tot) path responses; 2**24 values are 256 MiB of
# complex128, so N = 1024 with M = 32, or 127 paths at N = 256 with M = 8
_MAX_BLOCK_VALUES = 2 ** 24
# bound on snr * N * M, about the matched sounding power over |g|**2: eight
# decades below float overflow, for the gain draw
_MAX_SOUNDING_POWER = 1e300


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


def _finite_db(x) -> bool:
    """Whether x dB is finite and so is the linear value 10 ** (x / 10) the engine converts it to."""
    if not np.isfinite(x):
        return False
    try:
        10.0 ** (float(x) / 10.0)
    except OverflowError:
        return False
    return True


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
        values = len(self.snr_grid_db) * self.trials * len(self.estimators)
        if values > _MAX_ERROR_VALUES:
            raise ValueError(f"trials = {self.trials} with {len(self.snr_grid_db)} SNR points and "
                             f"{len(self.estimators)} estimator entries needs {values} per-trial errors, "
                             f"above the 2**28 (2 GiB of float64) that run_sweep may hold")
        check_n_rf(self.n_rf)
        if self.channel_kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.channel_kind!r}; expected one of {CHANNEL_KINDS}")
        matrix = _TRIAL_BLOCK * self.m_tot * self.n_tot
        if matrix > _MAX_BLOCK_VALUES:
            raise ValueError(f"n_tot = {self.n_tot} with m_tot = {self.m_tot} gives a ({_TRIAL_BLOCK}, m_tot, "
                             f"n_tot) channel block of {matrix} values, above the 2**24 (256 MiB of complex128) "
                             f"a block may hold")
        responses = _TRIAL_BLOCK * self.num_paths * (self.n_tot + self.m_tot)
        if self.channel_kind == "rician" and responses > _MAX_BLOCK_VALUES:
            raise ValueError(f"num_paths = {self.num_paths} gives ({_TRIAL_BLOCK}, num_paths, n_tot + m_tot) "
                             f"path responses of {responses} values, above the 2**24 (256 MiB of complex128) "
                             f"a block may hold")
        if not self.estimators:
            raise ValueError("estimators: at least one estimator entry is required")
        for spec in self.estimators:
            if spec.beams > _MAX_BEAMS:
                raise ValueError(f"{spec.kind}: beams must be <= {_MAX_BEAMS}, the bound on an N x beams "
                                 f"codebook and a block's {_TRIAL_BLOCK} x soundings noise draw")
        for key, prior in (("aod_prior_deg", self.aod_prior_deg), ("aoa_prior_deg", self.aoa_prior_deg)):
            if not (-90.0 <= prior[0] < prior[1] <= 90.0):
                raise ValueError(f"{key} {prior} must be an increasing interval within [-90, 90]")
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must hold at least one point")
        for key, values in (("snr_grid_db", self.snr_grid_db), ("k_factor_db", (self.k_factor_db,))):
            bad = [x for x in values if not _finite_db(x)]
            if bad:
                raise ValueError(f"{key} must be finite in dB and as a linear power, got {bad[0]!r}")
        peak = max(self.snr_grid_db)
        if 10.0 ** (peak / 10.0) * self.n_tot * self.m_tot > _MAX_SOUNDING_POWER:
            raise ValueError(f"snr_grid_db point {peak!r} at n_tot = {self.n_tot}, m_tot = {self.m_tot} "
                             f"gives a matched sounding power above {_MAX_SOUNDING_POWER:g}")
        if any(b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ValueError("snr_grid_db must be strictly increasing")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        if self.channel_kind == "rician" and self.num_paths < 1:
            raise ValueError("rician channels need num_paths >= 1")
        geometry = ArrayGeometry(self.n_tot, self.tx_spacing)
        width = (angle_to_spatial(self.aod_prior_deg[1], geometry)
                 - angle_to_spatial(self.aod_prior_deg[0], geometry))
        if not 0 < width <= 2.0 * np.pi:
            raise ValueError(f"tx_spacing = {self.tx_spacing} with aod_prior_deg = {self.aod_prior_deg} "
                             f"spans {width:.4g} rad of spatial frequency, not in (0, 2*pi]")
        for spec in self.estimators:
            if spec.kind.startswith("two_stage"):
                try:  # with the beam count set, only nonadequate_k can put the half width out of range
                    halves = [widebeam_grid(width, self.n_tot, **_widebeam_options(self, spec))[1]]
                except ValueError as exc:
                    raise ValueError(f"{spec.kind} = {spec.beams}: nonadequate_k: {exc}") from None
            elif spec.kind == "gob_abp":
                halves = [half for _, half in build_steering_codebook(self.aod_prior_deg, spec.beams,
                                                                      geometry).pair_geometry]
            else:
                continue
            # the domain of invert_ratio, whose denominator at a zero ratio is sin(half)**2
            for half in halves:
                if not (0 < half < np.pi / 2 and np.sin(half) ** 2 > 0):
                    raise ValueError(f"{spec.kind} = {spec.beams}: pair half width {half:.6g} rad "
                                     f"over aod_prior_deg = {self.aod_prior_deg} is outside (0, pi/2) "
                                     f"or its sin**2 underflows")
            if spec.kind.startswith("two_stage"):
                try:
                    check_half_width(halves[0], self.n_tot, self.n_rf)
                except ValueError as exc:
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


_workspace = functools.cache(_Workspace)


def _stream(master_seed: int, domain: int, snr_index: int, block_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(domain, snr_index, block_index))
    return np.random.default_rng(seq)


def _cn(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) CN(0, 1) samples; each real part sits next to its imaginary part in the stream."""
    return rng.standard_normal((rows, cols, 2)).view(complex)[..., 0] / np.sqrt(2.0)


def _block_errors(ws, config, snr_index, block, count):
    """Absolute angle errors in degrees for the first `count` trials of one block, shape (count, E).

    The channel stream draws full `_TRIAL_BLOCK`-row arrays and each noise
    stream only its first `count` rows (see the module docstring); the first
    `count` channel rows are built as one block realization. Estimator
    failures surface through the built-in fallbacks (center estimate), never
    as a dropped trial.
    """
    rows = slice(count)
    rician = config.channel_kind == "rician"
    channel_rng = _stream(config.master_seed, 0, snr_index, block)
    shape = (_TRIAL_BLOCK, config.num_paths if rician else 1)
    aods = channel_rng.uniform(*config.aod_prior_deg, shape)[rows]
    aoas = channel_rng.uniform(*config.aoa_prior_deg, shape)[rows]
    gains = _cn(channel_rng, *shape)[rows]
    if rician:
        channels = make_rician(config.k_factor_db, aods, aoas, gains, ws.geometry_tx, ws.geometry_rx,
                               nlos_normalized=config.nlos_normalized)
    else:
        channels = make_single_path(aods[:, 0], aoas[:, 0], gains[:, 0], ws.geometry_tx, ws.geometry_rx)
    snr = 10.0 ** (config.snr_grid_db[snr_index] / 10.0)
    estimates = np.empty((count, len(config.estimators)))
    for ei, (spec, codebook) in enumerate(zip(config.estimators, ws.codebooks)):
        estimate = _ESTIMATE[spec.kind]
        noise = _cn(_stream(config.master_seed, ei + 1, snr_index, block), count, spec.soundings)
        powers = sound_codebook(channels.matched_row, codebook, snr, noise)
        estimates[:, ei] = [estimate(*draw, codebook).estimate_deg for draw in zip(*powers)]
    return np.abs(channels.aod_deg[:, None] - estimates)


def _run_block(args):
    config, snr_index, block, count = args
    return snr_index, block, _block_errors(_workspace(config), config, snr_index, block, count)


def run_sweep(config: ExperimentConfig, workers: int = 1):
    """Run every (estimator, SNR, trial) cell; returns one ErrorCurve per estimator.

    Each task is one (SNR index, block, trial count); results are placed by
    block, so the output is bit-identical for any `workers` value.
    """
    _workspace(config)  # synthesize codebooks up front so failures surface here
    n_snr, n_trials = len(config.snr_grid_db), config.trials
    errors = np.empty((n_snr, n_trials, len(config.estimators)))
    tasks = [(config, si, start // _TRIAL_BLOCK, min(_TRIAL_BLOCK, n_trials - start))
             for si in range(n_snr) for start in range(0, n_trials, _TRIAL_BLOCK)]
    pool = ProcessPoolExecutor(min(workers, len(tasks))) if workers > 1 else None
    with pool or nullcontext():
        for si, block, rows in (pool.map if pool else map)(_run_block, tasks):
            errors[si, block * _TRIAL_BLOCK:][:len(rows)] = rows

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
    """Stable short hash of the full configuration and the seeding contract it runs under."""
    payload = json.dumps({**asdict(config), "seeding_contract": SEEDING_CONTRACT}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def write_results_csv(curves, path, config: ExperimentConfig) -> None:
    """Write the result table with reproducibility metadata as header comments."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# beamalign {__version__} seeding v{SEEDING_CONTRACT}\n")
        fh.write(f"# master_seed = {config.master_seed}\n")
        fh.write(f"# config_sha256 = {config_digest(config)}\n")
        writer = csv.writer(fh)
        writer.writerow(["estimator", "snr_db", "mean_abs_error_deg",
                         "std_error_deg", "trials", "soundings"])
        for curve in curves:
            for snr, mean, se, trials, soundings in curve.rows():
                writer.writerow([curve.estimator_id, repr(float(snr)), repr(float(mean)),
                                 repr(float(se)), str(trials), str(soundings)])
