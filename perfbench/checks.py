"""Correctness checks on the files a benchmark job writes.

Each check returns a list of problems; an empty list means the output is
correct. Reference files under perfbench/reference/ were recorded by
make_reference.py.
"""

import csv
import io
import json
import math

# A sweep MAE may differ from the reference by this many combined standard
# errors. The run's share of the combined error is the larger of its own
# standard error and the one the reference's per-trial spread predicts for
# the run's trial count. Errors are heavy-tailed (rare sector misses), so
# a short run either misses them (its own standard error is then too small)
# or catches one (the reference's is then too small).
MAE_Z_MAX = 6.0
WEIGHT_TOL = 1e-12
CSV_HEADER = ["estimator", "snr_db", "mean_abs_error_deg", "std_error_deg", "trials", "soundings"]


def read_results(text):
    """(comment lines, header row, data rows) of a results CSV."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(ln for ln in lines if not ln.startswith("#")))))
    return comments, rows[0] if rows else [], rows[1:]


def check_sweep_csv(text, reference_text, master_seed, digest, trials):
    """Header, one row per reference (estimator, SNR), and every MAE near the reference."""
    problems = []
    comments, header, rows = read_results(text)
    if len(comments) != 3 or not comments[0].startswith("# beamalign "):
        problems.append(f"unexpected comment header {comments}")
    if f"# master_seed = {master_seed}" not in comments:
        problems.append(f"header lacks master_seed = {master_seed}")
    if f"# config_sha256 = {digest}" not in comments:
        problems.append(f"header lacks config_sha256 = {digest}")
    if header != CSV_HEADER:
        problems.append(f"unexpected column header {header}")
    _, _, ref_rows = read_results(reference_text)
    if [r[:2] for r in rows] != [r[:2] for r in ref_rows]:
        return problems + ["(estimator, snr_db) rows differ from the reference table"]
    for row, ref in zip(rows, ref_rows):
        label = f"{row[0]} @ {row[1]} dB"
        if int(row[4]) != trials or row[5] != ref[5]:
            problems.append(f"{label}: trials/soundings {row[4]}/{row[5]}, expected {trials}/{ref[5]}")
            continue
        mean, se, ref_mean, ref_se = (float(v) for v in (row[2], row[3], ref[2], ref[3]))
        run_se = max(se, ref_se * math.sqrt(int(ref[4]) / trials))
        combined = math.sqrt(run_se ** 2 + ref_se ** 2)
        if not (math.isfinite(mean) and abs(mean - ref_mean) <= MAE_Z_MAX * combined):
            problems.append(f"{label}: MAE {mean:.6g} vs reference {ref_mean:.6g} "
                            f"(combined standard error {combined:.3g})")
    return problems


def expected_boresights(span_deg, num_beams):
    """Beam centers uniform in spatial frequency over the span (d = lambda/2)."""
    lo, hi = (math.pi * math.sin(math.radians(a)) for a in span_deg)
    return [lo + (i + 0.5) * (hi - lo) / num_beams for i in range(num_beams)]


def check_codebook(csv_text, dump_text, job, ref):
    """Offsets exactly, baseband and weights to WEIGHT_TOL, against the reference beam.

    Every beam of a codebook is the reference boresight-0 beam translated by
    the per-element phase ramp exp(j*m*boresight).
    """
    problems = []
    n = job["n_tot"]
    rows = list(csv.reader(io.StringIO(csv_text)))
    dump = json.loads(dump_text)
    if len(rows) != job["num_beams"] + 1 or len(dump) != job["num_beams"]:
        return [f"expected {job['num_beams']} beams, got {len(rows) - 1} rows and {len(dump)} dumps"]
    k_field = "" if ref["adequacy_k"] is None else str(ref["adequacy_k"])
    combined0 = [complex(re, im) for re, im in ref["combined0"]]
    baseband_ref = [complex(re, im) for re, im in ref["baseband"]]
    for row, beam, gamma in zip(rows[1:], dump, expected_boresights(job["span_deg"], job["num_beams"])):
        label = f"N={n} n_rf={job['n_rf']} beam {row[0]}"
        boresight, half_width = float(row[1]), float(row[2])
        if abs(boresight - gamma) > WEIGHT_TOL or half_width != ref["half_width"] or row[3] != k_field:
            problems.append(f"{label}: boresight/half width/k {row[1:4]}, expected "
                            f"{gamma!r}/{ref['half_width']!r}/{k_field!r}")
        if beam["offsets"] != ref["offsets"]:
            problems.append(f"{label}: offsets {beam['offsets']} != reference {ref['offsets']}")
        baseband = [complex(re, im) for re, im in beam["baseband"]]
        if len(baseband) != len(baseband_ref) or any(
                abs(a - b) > WEIGHT_TOL for a, b in zip(baseband, baseband_ref)):
            problems.append(f"{label}: baseband weights differ from the reference")
        weights = [complex(float(row[4 + m]), float(row[4 + n + m])) for m in range(n)]
        expected = [complex(math.cos(m * boresight), math.sin(m * boresight)) * combined0[m]
                    for m in range(n)]
        err = max(abs(a - b) for a, b in zip(weights, expected))
        if err > WEIGHT_TOL:
            problems.append(f"{label}: combined weights off the reference by {err:.3g}")
    return problems
