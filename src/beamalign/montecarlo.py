"""Deterministic Monte Carlo engine: sweep SNR, run trials, aggregate error curves.

Seeding contract: the stream for any draw is derived solely from
(master_seed, domain, snr_index, trial_index) via numpy SeedSequence spawn
keys, where domain 0 is the channel draw shared by every estimator (common
random numbers) and domain e+1 is the sounding noise of estimator entry e.
Results are therefore bit-identical for any worker count and execution order.
A trial block derives all of its streams in one array pass that repeats
SeedSequence's hash word for word (`_spawn_words`), and loads each into one
generator per domain (`_reseat`); `_stream` is the one-stream definition.
"""

import csv
import functools
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

ESTIMATOR_KINDS = ("two_stage", "two_stage_nonadequate", "gob", "gob_abp")
CHANNEL_KINDS = ("single_path", "rician")
_TRIAL_BLOCK = 500
_MAX_TRIALS = 2 ** 32  # every spawn-key entry is one uint32 word
# bound on snr * N * M, about the matched sounding power over |g|**2: eight
# decades below float overflow, for the gain draw
_MAX_SOUNDING_POWER = 1e300

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, a port of
# O'Neill's seed_seq) and PCG64's seeding multiplier (pcg64.h)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
        if not 1 <= self.trials <= _MAX_TRIALS:
            raise ValueError(f"trials must be in [1, 2**32], got {self.trials}")
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
        for key, values in (("snr_grid_db", self.snr_grid_db), ("k_factor_db", (self.k_factor_db,))):
            bad = [x for x in values if not _finite_db(x)]
            if bad:
                raise ValueError(f"{key} must be finite in dB and as a linear power, got {bad[0]!r}")
        peak = max(self.snr_grid_db)
        if 10.0 ** (peak / 10.0) * self.n_tot * self.m_tot > _MAX_SOUNDING_POWER:
            raise ValueError(f"snr_grid_db point {peak!r} at n_tot = {self.n_tot}, m_tot = {self.m_tot} "
                             f"gives a matched sounding power above {_MAX_SOUNDING_POWER:g}")
        if any(b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ValueError("snr grid must be strictly increasing")
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
                half = widebeam_grid(width, self.n_tot, **_widebeam_options(self, spec))[1]
            elif spec.kind == "gob_abp" and spec.beams > 1:
                half = 0.5 * width / spec.beams
            else:
                continue
            # the domain of invert_ratio, whose denominator at a zero ratio is sin(half)**2
            if not (0 < half < np.pi / 2 and np.sin(half) ** 2 > 0):
                raise ValueError(f"{spec.kind} = {spec.beams}: pair half width {half:.6g} rad "
                                 f"over aod_prior_deg = {self.aod_prior_deg} is outside (0, pi/2) "
                                 f"or its sin**2 underflows")
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


_workspace = functools.cache(_Workspace)


def _stream(master_seed: int, domain: int, snr_index: int, trial_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(domain, snr_index, trial_index))
    return np.random.default_rng(seq)


def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = first .. first + count - 1, as a (count, 1, 1) uint32 array."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + count)],
                    dtype=np.uint32).reshape(count, 1, 1)


def _spawn_words(root: np.random.SeedSequence, domains, snr_index, trials) -> np.ndarray:
    """PCG64 seed words of every (trial, domain) stream, shape (len(trials), len(domains), 4).

    Entry [t, d] equals SeedSequence(root.entropy, spawn_key=(domains[d],
    snr_index, trials[t])).generate_state(4, np.uint64). `root.pool` already
    holds the run entropy, zero-padded to the pool size, mixed in; each
    spawn-key word then continues the hash into all four pool words at once.
    The hash runs on uint32 arrays, which wrap silently; its constants do not
    depend on the data.
    """
    key = (np.asarray(domains)[None, :], np.asarray(snr_index).reshape(1, 1), np.asarray(trials)[:, None])
    for entry in key:
        if entry.size and not (0 <= entry.min() and entry.max() <= _MASK32):
            raise ValueError(f"spawn key entries must lie in [0, 2**32), got {entry.ravel().tolist()}")
    # hashmix calls so far: 4 to fill the pool, 12 to mix it, 4 per run word beyond the pool
    run_words = max(1, -(-root.entropy.bit_length() // 32))
    mix_consts = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(0, run_words - 4), 4 * len(key) + 1)
    pool = root.pool[:, None, None]
    for j, entry in enumerate(key):  # pool[i] = mix(pool[i], hashmix(entry))
        value = entry.astype(np.uint32) ^ mix_consts[4 * j:4 * j + 4]
        value *= mix_consts[4 * j + 1:4 * j + 5]
        value ^= value >> 16
        pool = pool * _MIX_MULT_L - value * _MIX_MULT_R
        pool ^= pool >> 16
    # generate_state(4, np.uint64): 8 uint32 words cycling the pool, paired little-endian
    out_consts = _hash_consts(_INIT_B, _MULT_B, 0, 9)
    value = np.concatenate([pool, pool]) ^ out_consts[:8]
    value *= out_consts[1:]
    value ^= value >> 16
    value = value.astype(np.uint64)
    return np.moveaxis(value[0::2] | value[1::2] << np.uint64(32), 0, -1)


def _reseat(rng: np.random.Generator, words) -> np.random.Generator:
    """Load into `rng` the PCG64 state that seeding from four uint64 `words` gives.

    PCG64 seeds with inc = 2*(words[2], words[3]) + 1 and two LCG steps from
    zero: state = (inc + (words[0], words[1])) * MULT + inc, mod 2**128.
    """
    seed = words[0] << 64 | words[1]
    inc = (words[2] << 65 | words[3] << 1 | 1) & _MASK128
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": ((inc + seed) * _PCG64_MULT + inc) & _MASK128,
                                         "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


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


def _block_errors(ws, config, snr_index, start, stop):
    """Absolute angle errors in degrees for trials start..stop-1, shape (stop - start, E).

    Every (domain, trial) stream is the one `_stream` returns: the block
    derives their seeds at once and reseats one generator per domain before
    each trial. Estimator failures surface through the built-in fallbacks
    (center estimate), never as a dropped trial.
    """
    root = np.random.SeedSequence(config.master_seed)
    n_est = len(config.estimators)
    words = _spawn_words(root, np.arange(1 + n_est), snr_index, np.arange(start, stop))
    channel_rng, *noise_rngs = (np.random.Generator(np.random.PCG64(root)) for _ in range(1 + n_est))
    snr = 10.0 ** (config.snr_grid_db[snr_index] / 10.0)
    out = np.empty((stop - start, n_est))
    for t, (channel_words, *noise_words) in enumerate(words.tolist()):
        channel = _draw_channel(config, ws, _reseat(channel_rng, channel_words))
        for ei, spec in enumerate(config.estimators):
            report = _ESTIMATE[spec.kind](channel, ws.codebooks[ei], snr,
                                          _reseat(noise_rngs[ei], noise_words[ei]))
            out[t, ei] = abs(channel.aod_deg - report.estimate_deg)
    return out


def _trial_errors(ws, config, snr_index, trial_index):
    """Absolute angle error in degrees for one trial, per estimator entry."""
    return _block_errors(ws, config, snr_index, trial_index, trial_index + 1)[0]


def _run_block(args):
    config, snr_index, start, stop = args
    return snr_index, start, _block_errors(_workspace(config), config, snr_index, start, stop)


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
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
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
