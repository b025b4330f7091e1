"""One fresh-process benchmark job: a `beamalign run` sweep or a `beamalign codebook` build.

Usage: python3 perfbench/child.py JOB.json

The job file names the mode, the input and output paths and whether to
trace. The job performs the same library calls as the CLI command it stands
for, through the public API, and times its phases in process:

- sweep: load_config, build every codebook the config needs (cold synthesis
  cache), run_sweep, write_results_csv;
- codebook: build_widebeam_codebook (cold), write_codebook_csv, plus a JSON
  dump of each beam's analog offsets and baseband weights for the checks.

The set-up and sweep times (and, when traced, the span summary) go to the
job's result file. The parent measures the process's wall time and rusage.
"""

import gzip
import json
import multiprocessing
import os
import sys
from math import comb
from time import perf_counter


def _build_codebooks(beamalign, config):
    """The codebooks run_sweep's workspace builds for `config`, built through the public API."""
    geom = beamalign.ArrayGeometry(config.n_tot, config.tx_spacing)
    books = []
    for spec in config.estimators:
        if spec.kind == "two_stage":
            books.append(beamalign.build_widebeam_codebook(
                config.aod_prior_deg, geom, n_rf=config.n_rf, num_beams=spec.beams))
        elif spec.kind == "two_stage_nonadequate":
            books.append(beamalign.build_widebeam_codebook(
                config.aod_prior_deg, geom, n_rf=config.n_rf, num_beams=spec.beams,
                k=1, delta_scale=config.nonadequate_k))
        else:
            books.append(beamalign.build_steering_codebook(config.aod_prior_deg, spec.beams, geom))
    return books


def _candidates(beams_mod, books, n_rf):
    """Candidate fits a cold synthesis evaluates: one per distinct half width (computed)."""
    widths = {b.half_width for b in books if isinstance(b, beams_mod.WidebeamCodebook)}
    return len(widths) * comb(beams_mod.XI_GRID_STEPS, (n_rf - 1) // 2)


def _sweep(job, res):
    import beamalign
    from beamalign import beams, cli, montecarlo

    t0 = perf_counter()
    config = cli.load_config(job["config"])
    books = _build_codebooks(beamalign, config)
    t1 = perf_counter()
    curves = montecarlo.run_sweep(config, workers=job["workers"])
    t2 = perf_counter()
    montecarlo.write_results_csv(curves, job["out"], config)
    res.update(setup_s=t1 - t0, sweep_s=t2 - t1, config_digest=montecarlo.config_digest(config),
               cells=config.trials * len(config.snr_grid_db) * len(config.estimators),
               candidates=_candidates(beams, books, config.n_rf))


def _codebook(job, res):
    import beamalign
    from beamalign import beams

    t0 = perf_counter()
    geom = beamalign.ArrayGeometry(job["n_tot"])
    t1 = perf_counter()
    book = beams.build_widebeam_codebook(tuple(job["span_deg"]), geom, n_rf=job["n_rf"],
                                         num_beams=job["num_beams"], k=job["k"],
                                         delta_scale=job["delta_scale"])
    t2 = perf_counter()
    beams.write_codebook_csv(job["out"], book)
    with open(job["out"] + ".json", "w") as fh:
        json.dump([{"offsets": list(b.offsets),
                    "baseband": [[v.real, v.imag] for v in b.baseband_vector.tolist()]}
                   for b in book.beams], fh)
    cands = _candidates(beams, [book], job["n_rf"])
    res.update(setup_s=t2 - t0, sweep_s=t2 - t1, cells=cands, candidates=cands)


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    import numpy
    import beamalign
    res = {"beamalign_file": beamalign.__file__,
           "numpy": numpy.__version__,
           "blas": "{name} {version}".format(**numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]),
           "start_method": multiprocessing.get_start_method(),
           "blas_threads": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    body = {"sweep": _sweep, "codebook": _codebook}[job["mode"]]
    if job["trace"]:
        from spans import Tracer  # perfbench/ is sys.path[0]

        tracer = Tracer()
        tracer.install()
        t0 = perf_counter()
        tracer.run_root(lambda: body(job, res))
        res["body_s"] = perf_counter() - t0
        res["spans"] = tracer.summary()
        res["span_count"] = len(tracer.spans)
        res["ratio_saturated"] = tracer.ratio_saturated
        res["ratio_degenerate"] = tracer.ratio_degenerate
        with gzip.open(job["result"] + ".spans.json.gz", "wt", compresslevel=1) as fh:
            json.dump(tracer.spans, fh)
    else:
        body(job, res)
    with open(job["result"], "w") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main(sys.argv[1])
