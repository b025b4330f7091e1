"""Record the reference tables the benchmark's correctness checks compare against.

Usage (from the repository root; takes a few minutes on two cores):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

Writes perfbench/reference/:
- fig5.csv, fig6.csv: the bundled configs at their own master seeds with
  TRIALS (4000) trials per SNR point. Benchmark runs use other seeds and far
  fewer trials, and are compared within checks.MAE_Z_MAX combined
  standard errors.
- codebooks.json: for each codebook of the synth-cold workload, the
  boresight-0 beam (analog offsets, baseband weights, combined weights) and
  the half width and adequacy k every beam of that codebook must have.
"""

import json
from dataclasses import replace

import beamalign
from beamalign import cli

from run import CODEBOOKS, REFERENCE, SWEEPS

TRIALS = 4000


def _pairs(values):
    return [[complex(v).real, complex(v).imag] for v in values]


def main():
    REFERENCE.mkdir(exist_ok=True)

    books = []
    for n, n_rf, num_beams, k, scale in CODEBOOKS:
        geom = beamalign.ArrayGeometry(n)
        book = beamalign.build_widebeam_codebook((-50.0, 50.0), geom, n_rf=n_rf, num_beams=num_beams,
                                                 k=k, delta_scale=scale)
        beam = beamalign.synthesize_widebeam(0.0, book.half_width, n_rf, geom, allow_nonadequate=True)
        books.append({"n_tot": n, "n_rf": n_rf, "k": k, "delta_scale": scale,
                      "half_width": book.half_width, "adequacy_k": book.k,
                      "offsets": list(beam.offsets), "baseband": _pairs(beam.baseband_vector),
                      "combined0": _pairs(beam.combined)})
    (REFERENCE / "codebooks.json").write_text(json.dumps(books, indent=1) + "\n")

    for sweep in SWEEPS.values():
        config = replace(cli.load_config(cli.bundled_config(sweep["config"])), trials=TRIALS)
        curves = beamalign.run_sweep(config, workers=2)
        out = REFERENCE / sweep["config"].replace(".cfg", ".csv")
        beamalign.write_results_csv(curves, out, config)
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
