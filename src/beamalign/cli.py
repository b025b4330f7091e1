"""Command-line driver: run Monte Carlo sweeps, export beam patterns and codebooks.

Exit codes: 0 success, 2 configuration error, 3 widebeam synthesis failure,
4 I/O error. Bad input raises ValueError, named by the code that read it:
the config key or the command's flag. Diagnostics verbosity comes from the
BEAMALIGN_LOG environment variable (DEBUG/INFO/WARNING/ERROR, default
WARNING) and goes to stderr.
"""

import argparse
import configparser
import logging
import os
import sys
from dataclasses import fields, replace
from importlib import resources

import numpy as np

from .arrays import ArrayGeometry, angle_to_spatial
from .beams import (
    SynthesisError,
    build_widebeam_codebook,
    check_half_width,
    is_adequate,
    synthesize_widebeam,
    widebeam_grid,
    write_codebook_csv,
    write_pattern_csv,
)
from .montecarlo import (
    _MAX_BEAMS,
    ESTIMATOR_KINDS,
    EstimatorSpec,
    ExperimentConfig,
    run_sweep,
    write_results_csv,
)

log = logging.getLogger("beamalign")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SYNTHESIS = 3
EXIT_IO = 4
# bound on --n-tot: synthesis fits a widebeam on 16 N points through one
# (N, 16 N) complex128 steering matrix, 16 * 1024**2 values (256 MiB) at N = 1024
_MAX_N_TOT = 1024
# bound on N x --grid-points: a pattern is one (N, grid points) complex128
# steering matrix, and its conjugate, of at most 2**24 values (256 MiB) each
_MAX_PATTERN_VALUES = 2 ** 24


def bundled_config(name: str):
    """Path-like handle to a packaged experiment config (e.g. 'fig4.cfg')."""
    return resources.files("beamalign").joinpath("configs", name)


def _parse_interval(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'low, high', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_snr_grid(text):
    if ":" in text:
        start, step, stop = (float(p) for p in text.split(":"))
        if step <= 0:
            raise ValueError("step must be > 0")
        return tuple(np.arange(start, stop + 1e-9, step).tolist())
    return tuple(float(p) for p in text.split(","))


def _parse_bool(text):
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Config keys come from the ExperimentConfig fields, parsed by field type. The
# [channel] section holds the channel fields (kind sets channel_kind),
# [estimators] takes one key per estimator kind, [experiment] the rest.
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_CHANNEL_FIELDS = {"kind": "channel_kind", "k_factor_db": "k_factor_db",
                   "num_paths": "num_paths", "nlos_normalized": "nlos_normalized"}
_SECTIONS = {
    "experiment": {name: name for name in _FIELDS
                   if name not in _CHANNEL_FIELDS.values() and name != "estimators"},
    "channel": _CHANNEL_FIELDS,
    "estimators": dict.fromkeys(ESTIMATOR_KINDS, "estimators"),
}
_PARSERS = {int: int, float: float, bool: _parse_bool, str: str.strip, tuple: _parse_interval}


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config file; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)

    kwargs = {"estimators": ()} if parser.has_section("estimators") else {}
    for section in parser.sections():
        keys = _SECTIONS.get(section)
        if keys is None:
            raise ValueError(f"unknown section [{section}]")
        for key, text in parser.items(section):
            if key not in keys:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            name = keys[key]
            try:
                if name == "estimators":
                    kwargs[name] += tuple(EstimatorSpec(key, int(p)) for p in text.split(","))
                elif name == "snr_grid_db":
                    kwargs[name] = _parse_snr_grid(text)
                else:
                    kwargs[name] = _PARSERS[_FIELDS[name].type](text)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None

    config = ExperimentConfig(**kwargs)
    for name in _FIELDS:
        log.info("config: %s = %r%s", name, getattr(config, name),
                 "" if name in kwargs else " (default)")
    return config


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    curves = run_sweep(config, workers=args.workers)
    write_results_csv(curves, args.out, config)
    for curve in curves:
        print(f"{curve.estimator_id}: soundings={curve.soundings}, "
              f"err {curve.mean_abs_error_deg[0]:.4g} deg @ {curve.snr_db[0]:g} dB"
              f" -> {curve.mean_abs_error_deg[-1]:.4g} deg @ {curve.snr_db[-1]:g} dB")
    return EXIT_OK


def _check_size(flag: str, value: int, high: int) -> None:
    """Raise ValueError naming `flag` unless 1 <= value <= high."""
    if not 1 <= value <= high:
        raise ValueError(f"{flag} must be >= 1, got {value}" if value < 1 else f"{flag} must be <= {high}, got {value}")


def _half_width_gate(delta: float, args, flag: str) -> None:
    """Raise ValueError unless half width delta is adequate (or allowed) and synthesizable, naming `flag`."""
    if not is_adequate(delta, args.n_tot)[0]:
        if not args.allow_nonadequate:
            raise ValueError(f"half width {delta:g} is not k*pi/N_tot; pass --allow-nonadequate to force")
        log.warning("synthesizing a non-adequate widebeam (half width %g)", delta)
    try:
        check_half_width(delta, args.n_tot, args.n_rf)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _cmd_pattern(args) -> int:
    if args.half_width_k < 1:
        raise ValueError(f"--half-width-k must be a positive integer, got {args.half_width_k}")
    _check_size("--n-tot", args.n_tot, _MAX_N_TOT)
    _check_size("--grid-points", args.grid_points, _MAX_PATTERN_VALUES // args.n_tot)
    geom = ArrayGeometry(args.n_tot)
    delta = args.half_width_k * args.delta_scale * np.pi / args.n_tot
    if not 0 < delta < np.inf:
        raise ValueError(f"--delta-scale: half width must be positive and finite, got {delta!r}")
    _half_width_gate(delta, args, "--half-width-k")
    beam = synthesize_widebeam(angle_to_spatial(args.boresight_deg, geom), delta,
                               args.n_rf, geom, allow_nonadequate=True)
    write_pattern_csv(args.out, beam.combined, geom, grid_points=args.grid_points)
    print(f"pattern: N={args.n_tot}, n_rf={args.n_rf}, boresight={args.boresight_deg} deg, "
          f"half_width={delta:.6g} rad, {args.grid_points} points -> {args.out}")
    return EXIT_OK


def _cmd_codebook(args) -> int:
    _check_size("--n-tot", args.n_tot, _MAX_N_TOT)
    if args.num_beams is not None:
        _check_size("--num-beams", args.num_beams, _MAX_BEAMS)
    span = (args.span_lo_deg, args.span_hi_deg)
    geom = ArrayGeometry(args.n_tot)
    width = angle_to_spatial(span[1], geom) - angle_to_spatial(span[0], geom)
    delta = widebeam_grid(width, args.n_tot, args.num_beams, args.k, args.delta_scale)[1]
    _half_width_gate(delta, args, "--k")
    codebook = build_widebeam_codebook(span, geom, n_rf=args.n_rf, num_beams=args.num_beams,
                                       k=args.k, delta_scale=args.delta_scale)
    write_codebook_csv(args.out, codebook)
    print(f"codebook: {len(codebook.beams)} beams over [{span[0]}, {span[1]}] deg, "
          f"half_width={codebook.half_width:.6g} rad, k={codebook.k} -> {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beamalign",
                                     description="Two-stage AoD estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured Monte Carlo sweep")
    p_run.add_argument("--config", required=True, help="experiment config file")
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.set_defaults(func=_cmd_run)

    p_pat = sub.add_parser("pattern", help="synthesize one widebeam and export its pattern")
    p_pat.add_argument("--n-tot", type=int, default=16)
    p_pat.add_argument("--n-rf", type=int, default=5)
    p_pat.add_argument("--boresight-deg", type=float, default=0.0)
    p_pat.add_argument("--half-width-k", type=int, default=2,
                       help="half width as a multiple of pi/N_tot")
    p_pat.add_argument("--grid-points", type=int, default=1024)
    p_pat.add_argument("--delta-scale", type=float, default=1.0,
                       help="scale the half width away from the adequate grid")
    p_pat.add_argument("--allow-nonadequate", action="store_true")
    p_pat.add_argument("--out", required=True)
    p_pat.set_defaults(func=_cmd_pattern)

    p_cb = sub.add_parser("codebook", help="build a widebeam codebook and export it")
    p_cb.add_argument("--n-tot", type=int, default=16)
    p_cb.add_argument("--n-rf", type=int, default=5)
    p_cb.add_argument("--span-lo-deg", type=float, default=-50.0)
    p_cb.add_argument("--span-hi-deg", type=float, default=50.0)
    p_cb.add_argument("--num-beams", type=int, default=None)
    p_cb.add_argument("--k", type=int, default=None)
    p_cb.add_argument("--delta-scale", type=float, default=1.0)
    p_cb.add_argument("--allow-nonadequate", action="store_true")
    p_cb.add_argument("--out", required=True)
    p_cb.set_defaults(func=_cmd_codebook)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("BEAMALIGN_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING),
                        format="beamalign: %(levelname)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SynthesisError as exc:
        log.error("widebeam synthesis failed: %s", exc)
        return EXIT_SYNTHESIS
    except (configparser.Error, ValueError) as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        log.error("I/O error: %s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
