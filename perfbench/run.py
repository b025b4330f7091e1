"""beamalign benchmark: sweep throughput, cold set-up and traced per-layer timings.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

- fig5-sweep      bundled fig5.cfg (N=32, single path, 5 estimators), workers 1
- fig6-rician-w2  bundled fig6.cfg (N=32, Rician, 4 paths), workers 2
- synth-cold      fresh-process codebook builds of every widebeam codebook the
                  bundled configs use, plus N=32 with n_rf=7

Every job runs in a fresh interpreter (perfbench/child.py) with the library
imported from ./src and BLAS pinned to one thread. Jobs repeat until
--seconds have passed; each metric is the median over the repeats. With
--trace 0 the end-to-end metrics are reported; with --trace 1, untraced and
traced jobs alternate at workers 1 and the per-layer metrics are reported.
Every output is checked (perfbench/checks.py); a job whose output fails a
check counts as failed. The last line of stdout is the JSON result.
"""

import argparse
import configparser
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from random import Random
from time import perf_counter

import checks
from spans import LAYERS, ROOT

ROOT_DIR = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT_DIR / "src"
CONFIGS = SRC / "beamalign" / "configs"
REFERENCE = BENCH_DIR / "reference"
CHILD = BENCH_DIR / "child.py"
# A job still running this long after the measuring window closed has hung and is killed.
KILL_MARGIN_S = 60
# Layer spans must cover this share of the child's own timing of a traced job.
MIN_SPAN_COVERAGE = 0.95
MIN_REPEATS = 3
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# 50 trials per SNR point keep one sweep under a second on one core, so a
# 40 s run holds 30-45 fresh-process repeats.
SWEEPS = {
    "fig5-sweep": {"config": "fig5.cfg", "trials": 50, "workers": 1},
    "fig6-rician-w2": {"config": "fig6.cfg", "trials": 50, "workers": 2},
}
# (n_tot, n_rf, num_beams, k, delta_scale): the fig3/fig4 two-stage beam at
# N=16, fig3's non-adequate 1.5*pi/N beam, the fig5/fig6 beam at N=32, and
# N=32 with n_rf=7.
CODEBOOKS = [(16, 5, 7, None, 1.0), (16, 5, 7, 1, 1.5), (32, 5, 14, None, 1.0), (32, 7, 14, None, 1.0)]
WORKLOADS = (*SWEEPS, "synth-cold")

# Layer spans predicted to be called on each workload; a zero count fails the traced run.
SWEEP_SPANS = ("cli.load_config", "cli.write_csv", "montecarlo.run_sweep", "montecarlo.task",
               "channel.draw", "channel.matrix", "estimators.two_stage", "estimators.gob",
               "estimators.gob_abp", "estimators.ratio", "estimators.invert", "beams.widebeam",
               "beams.steering_codebook", "beams.abp", "arrays.steering", "arrays.steering_matrix")
PREDICTED = {"fig5-sweep": SWEEP_SPANS, "fig6-rician-w2": SWEEP_SPANS,
             "synth-cold": ("cli.write_csv", "beams.widebeam", "arrays.steering_matrix")}


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # the job ended meanwhile
        pass


class Job:
    """One fresh-process child run: its timings, rusage and correctness."""

    def __init__(self, out_dir, tag, spec, kill_at):
        self.kill_at = kill_at
        self.spec = dict(spec, out=str(out_dir / f"{tag}.csv"), result=str(out_dir / f"{tag}.json"))
        self.path = out_dir / f"{tag}.job.json"
        self.log = out_dir / f"{tag}.log"
        self.problems = []
        self.res = {}

    def run(self):
        self.path.write_text(json.dumps(self.spec))
        env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
        env.pop("BEAMALIGN_LOG", None)
        with open(self.log, "w") as log:
            t0 = perf_counter()
            # its own process group, so a kill also reaches the job's pool workers
            proc = subprocess.Popen([sys.executable, str(CHILD), str(self.path)], cwd=ROOT_DIR,
                                    env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                                    start_new_session=True)
            killer = threading.Timer(max(1.0, self.kill_at - perf_counter()), _kill_group, (proc.pid,))
            killer.start()
            try:
                # wait4 reports this child's own rusage, including the pool workers it reaped
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if proc.returncode != 0:
            self.problems.append(f"exit code {proc.returncode}: {self.log.read_text()[-2000:]}")
            return self
        self.res = json.loads(Path(self.spec["result"]).read_text())
        if Path(self.res["beamalign_file"]).resolve().parent != (SRC / "beamalign").resolve():
            self.problems.append(f"imported beamalign from {self.res['beamalign_file']}, not ./src")
        return self

    @property
    def ok(self):
        return not self.problems

    def output(self):
        return Path(self.spec["out"]).read_text()


class Workload:
    def __init__(self, name, seed, out_dir, kill_at):
        self.name, self.out_dir, self.kill_at = name, out_dir, kill_at
        rng = Random(seed)
        self.jobs = []
        if name in SWEEPS:
            sweep = SWEEPS[name]
            self.master_seed = rng.randrange(2 ** 31)
            self.trials = sweep["trials"]
            self.workers = sweep["workers"]
            cfg = configparser.ConfigParser()
            cfg.read(CONFIGS / sweep["config"])
            cfg["experiment"]["trials"] = str(self.trials)
            cfg["experiment"]["master_seed"] = str(self.master_seed)
            self.config_path = out_dir / "input.cfg"
            with open(self.config_path, "w") as fh:
                cfg.write(fh)
            self.reference = (REFERENCE / sweep["config"].replace(".cfg", ".csv")).read_text()
        else:
            # the span edges move with the seed; the beam count keeps every half width fixed
            span = (-50.0 + rng.uniform(-2.0, 2.0), 50.0 + rng.uniform(-2.0, 2.0))
            self.codebooks = [dict(n_tot=n, n_rf=n_rf, num_beams=beams, k=k, delta_scale=scale,
                                   span_deg=list(span))
                              for n, n_rf, beams, k, scale in CODEBOOKS]
            refs = json.loads((REFERENCE / "codebooks.json").read_text())
            self.reference = {_codebook_key(r): r for r in refs}

    def repeat(self, tag, trace, workers=None):
        """Run one repeat (a sweep job, or one codebook job per codebook); returns its jobs."""
        if self.name in SWEEPS:
            specs = [dict(mode="sweep", config=str(self.config_path), trace=trace,
                          workers=self.workers if workers is None else workers)]
        else:
            specs = [dict(cb, mode="codebook", trace=trace) for cb in self.codebooks]
        jobs = [Job(self.out_dir, f"{tag}-{i}", spec, self.kill_at).run() for i, spec in enumerate(specs)]
        for job in jobs:
            if job.ok:
                self._check(job)
            if trace and job.ok:
                self._check_trace(job)
        self.jobs += jobs
        return jobs

    def _check(self, job):
        if self.name in SWEEPS:
            job.problems += checks.check_sweep_csv(job.output(), self.reference, self.master_seed,
                                                   job.res["config_digest"], self.trials)
        else:
            spec = job.spec
            ref = self.reference[_codebook_key(spec)]
            job.problems += checks.check_codebook(job.output(), Path(spec["out"] + ".json").read_text(),
                                                  spec, ref)

    def _check_trace(self, job):
        spans = job.res["spans"]
        missing = [name for name in PREDICTED[self.name] if spans.get(name, {}).get("calls", 0) == 0]
        if missing:
            job.problems.append(f"traced run saw no calls to {missing}")
        # body_s is the child's own clock around the root span, so time the layer spans
        # leave unaccounted (unwrapped work, or a root span that mismeasures) shows here
        layers = sum(row["self_s"] for name, row in spans.items() if name != ROOT)
        if layers < MIN_SPAN_COVERAGE * job.res["body_s"]:
            job.problems.append(f"layer spans cover {layers:.4g} s of the job's "
                                f"{job.res['body_s']:.4g} s")
        if self.name in SWEEPS:
            estimates = sum(spans.get(f"estimators.{k}", {}).get("calls", 0)
                            for k in ("two_stage", "gob", "gob_abp"))
            if estimates != job.res["cells"]:
                job.problems.append(f"{estimates} estimator calls for {job.res['cells']} cells")


def _codebook_key(d):
    return (d["n_tot"], d["n_rf"], d["k"], d["delta_scale"])


def _repeat_metrics(jobs):
    """End-to-end times of one repeat; a synth-cold repeat spans four processes."""
    return {
        "setup_s": sum(j.res["setup_s"] for j in jobs),
        "sweep_s": sum(j.res["sweep_s"] for j in jobs),
        "wall_s": sum(j.wall_s for j in jobs),
        "cpu_s": sum(j.cpu_s for j in jobs),
        "peak_rss_mb": max(j.peak_rss_mb for j in jobs),
    }


def unit(name):
    """Unit of a metric, from its name."""
    if "cells_per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return {"peak_rss_mb": "MiB", "channel.matrix_per_draw": "ratio",
            "trace.overhead_frac": "frac"}.get(name, "count")


def _layer_metrics(jobs):
    """Per-layer values of one traced repeat, summed over its processes."""
    rows = {}
    for job in jobs:
        for name, row in job.res["spans"].items():
            acc = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    calls = lambda name: rows.get(name, {}).get("calls", 0)
    total = lambda name: rows.get(name, {}).get("total_s", 0.0)
    self_s = lambda name: rows.get(name, {}).get("self_s", 0.0)
    layer_self = lambda layer: sum(r["self_s"] for n, r in rows.items() if n.split(".")[0] == layer)
    m = {
        "montecarlo.run_sweep_s": total("montecarlo.run_sweep"),
        "montecarlo.cells": sum(j.res["cells"] for j in jobs if j.spec["mode"] == "sweep"),
        "montecarlo.tasks": calls("montecarlo.task"),
        "channel.draw_calls": calls("channel.draw"),
        "channel.draw_s": total("channel.draw"),
        "channel.matrix_calls": calls("channel.matrix"),
        "channel.matrix_s": total("channel.matrix"),
        "channel.matrix_per_draw": calls("channel.matrix") / max(calls("channel.draw"), 1),
        "estimators.ratio_calls": calls("estimators.ratio"),
        "estimators.ratio_saturated": sum(j.res["ratio_saturated"] for j in jobs),
        "estimators.ratio_degenerate": sum(j.res["ratio_degenerate"] for j in jobs),
        "estimators.invert_s": total("estimators.invert"),
        "beams.widebeam_builds": calls("beams.widebeam"),
        "beams.widebeam_s": total("beams.widebeam"),
        "beams.candidates": sum(j.res["candidates"] for j in jobs),
        "beams.steering_codebook_s": total("beams.steering_codebook"),
        "beams.abp_builds": calls("beams.abp"),
        "beams.abp_s": total("beams.abp"),
        "arrays.steering_calls": calls("arrays.steering") + calls("arrays.steering_matrix"),
        "arrays.steering_s": total("arrays.steering") + total("arrays.steering_matrix"),
        "cli.load_config_s": total("cli.load_config"),
        "cli.write_csv_s": total("cli.write_csv"),
        "trace.root_s": total(ROOT),
        "trace.unattributed_s": self_s(ROOT),
        "trace.spans": sum(j.res["span_count"] for j in jobs),
    }
    for kind in ("two_stage", "gob", "gob_abp"):
        m[f"estimators.{kind}.calls"] = calls(f"estimators.{kind}")
        m[f"estimators.{kind}.self_s"] = self_s(f"estimators.{kind}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m


def _environment():
    env = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "git_sha": "unknown"}
    if (ROOT_DIR / ".git").exists():
        sha = subprocess.run(["git", "--git-dir", str(ROOT_DIR / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        env["git_sha"] = sha.stdout.strip() or "unknown"
    return env


def run(name, seed, seconds, trace):
    out_dir = BENCH_DIR / "out" / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    start = perf_counter()
    deadline = start + seconds
    wl = Workload(name, seed, out_dir, kill_at=deadline + KILL_MARGIN_S)
    repeats = []  # (jobs,) or (untraced jobs, traced jobs)
    while True:
        t0 = perf_counter()
        i = len(repeats)
        if trace:
            repeats.append((wl.repeat(f"r{i}", False, workers=1), wl.repeat(f"t{i}", True, workers=1)))
        else:
            repeats.append((wl.repeat(f"r{i}", False),))
        took = perf_counter() - t0
        if len(repeats) >= MIN_REPEATS and perf_counter() + took > deadline:
            break

    # Every repeat computes the same inputs, so all outputs must match byte for byte;
    # for fig6 that includes a workers-1 run against the workers-2 repeats.
    if name == "fig6-rician-w2" and not trace:
        wl.repeat("w1", False, workers=1)
    first = {}
    for job in wl.jobs:
        if job.ok:
            key = job.spec.get("n_tot", 0), job.spec.get("n_rf", 0), job.spec.get("k")
            text = job.output()
            if first.setdefault(key, text) != text:
                job.problems.append("output differs from the first repeat's")

    failed = [j for j in wl.jobs if not j.ok]
    for job in failed:
        print(f"FAILED {job.path.name}: " + "; ".join(job.problems), file=sys.stderr)
    good = [r for r in repeats if all(j.ok for part in r for j in part)]
    result = {"correct": not failed, "attempted": len(wl.jobs), "failed": len(failed), "metrics": {}}
    if not good:
        print("no repeat succeeded", file=sys.stderr)
        print(json.dumps(result))
        return 1

    # every repeat does the same work, so throughput is cells over the median sweep time
    cells = sum(j.res["cells"] for j in good[0][-1])
    if trace:
        per_rep = [_layer_metrics(traced) for _, traced in good]
        for rep, (untraced, traced) in zip(per_rep, good):
            rep["untraced_sweep_s"] = _repeat_metrics(untraced)["sweep_s"]
            rep["traced_sweep_s"] = _repeat_metrics(traced)["sweep_s"]
    else:
        per_rep = [_repeat_metrics(jobs) for (jobs,) in good]
    metrics = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    if trace:
        untraced, traced = metrics.pop("untraced_sweep_s"), metrics.pop("traced_sweep_s")
        metrics["trace.cells_per_s_untraced"] = cells / untraced
        metrics["trace.cells_per_s_traced"] = cells / traced
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
    else:
        metrics["cells_per_s"] = cells / metrics["sweep_s"]

    env = _environment()
    sample = next(j.res for j in wl.jobs if j.ok)
    env.update({k: sample[k] for k in ("numpy", "blas", "start_method", "blas_threads")})
    print("environment: " + json.dumps(env))
    print(f"workload {name}: seed {seed}, {len(good)} repeats in {perf_counter() - start:.1f} s, "
          f"{len(wl.jobs)} jobs, {len(failed)} failed")
    for key, value in metrics.items():
        print(f"  {key}: {value:.6g} {unit(key)}")
    result["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "beamalign" / "__init__.py").is_file() or not (CONFIGS / "fig5.cfg").is_file():
        print(f"no beamalign sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
