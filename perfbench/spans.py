"""Span tracing for the benchmark's traced runs.

`Tracer.install()` wraps the public entry points of every beamalign layer.
The library binds many of them by name at import time (`from .arrays import
steering`, the `_ESTIMATE` dispatch table, `ChannelRealization.matrix` on the
class), so the installer replaces every reference it finds in the package's
module globals, in dicts held by those globals and in the package's classes,
and then fails if any reference to an unwrapped original is left, or if a
wrapped name no longer exists. A missed wrapper therefore stops the run
instead of reading as a silent zero.

Spans are kept in memory as (name, start, end, parent) and reduced to
per-name call counts, inclusive time and self time (duration minus the time
covered by child spans) after the run.
"""

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute or Class.method) -> span name; the layer is the prefix
# before the first dot. The two CSV writers are the CLI's output step.
TARGETS = {
    ("arrays", "steering"): "arrays.steering",
    ("arrays", "steering_matrix"): "arrays.steering_matrix",
    ("beams", "build_widebeam_codebook"): "beams.widebeam",
    ("beams", "build_steering_codebook"): "beams.steering_codebook",
    ("beams", "build_abp"): "beams.abp",
    ("beams", "write_codebook_csv"): "cli.write_csv",
    ("channel", "make_single_path"): "channel.draw",
    ("channel", "make_rician"): "channel.draw",
    ("channel", "ChannelRealization.matrix"): "channel.matrix",
    ("estimators", "estimate_two_stage"): "estimators.two_stage",
    ("estimators", "estimate_gob"): "estimators.gob",
    ("estimators", "estimate_gob_abp"): "estimators.gob_abp",
    ("estimators", "ratio_metric"): "estimators.ratio",
    ("estimators", "invert_ratio"): "estimators.invert",
    ("montecarlo", "run_sweep"): "montecarlo.run_sweep",
    ("montecarlo", "_run_block"): "montecarlo.task",
    ("montecarlo", "write_results_csv"): "cli.write_csv",
    ("cli", "load_config"): "cli.load_config",
}

LAYERS = ("cli", "montecarlo", "channel", "estimators", "beams", "arrays")
ROOT = "bench.root"


class WrapperError(RuntimeError):
    """A layer entry point could not be wrapped, or a reference escaped wrapping."""


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index); None while open
        self._stack = [-1]
        self.ratio_saturated = 0
        self.ratio_degenerate = 0

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def _ratio(self, fn, degenerate_error):
        timed = self.span("estimators.ratio", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                zeta = timed(*args, **kwargs)
            except degenerate_error:
                self.ratio_degenerate += 1
                raise
            if abs(zeta) == 1.0:
                self.ratio_saturated += 1
            return zeta

        return wrapper

    def install(self):
        """Wrap every target everywhere the beamalign package refers to it."""
        estimators = importlib.import_module("beamalign.estimators")
        wrappers = {}
        for (mod_name, attr), name in TARGETS.items():
            owner = importlib.import_module(f"beamalign.{mod_name}")
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            fn = vars(owner).get(attr.split(".")[-1])
            if fn is None:
                raise WrapperError(f"beamalign.{mod_name}.{attr} not found; update perfbench/spans.py")
            if name == "estimators.ratio":
                wrappers[fn] = self._ratio(fn, estimators.DegenerateSoundingError)
            else:
                wrappers[fn] = self.span(name, fn)
        _rebind(wrappers)
        left = _rebind({fn: None for fn in wrappers})
        if left:
            raise WrapperError(f"{left} references to unwrapped layer functions remain")

    def run_root(self, fn):
        """Call fn inside the root span; every layer span must nest under it."""
        return self.span(ROOT, fn)()

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            covered[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered[idx]
        return dict(out)


def _package_namespaces():
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "beamalign" or mod_name.startswith("beamalign.")):
            continue
        yield vars(mod), lambda key, value, mod=mod: setattr(mod, key, value)
        for value in list(vars(mod).values()):
            if isinstance(value, dict):
                yield value, value.__setitem__
            elif isinstance(value, type) and value.__module__ == mod_name:
                yield vars(value), lambda key, val, cls=value: setattr(cls, key, val)


def _rebind(replacements):
    """Replace every package reference to a key of `replacements`; returns how many.

    A value of None only counts the references without replacing them.
    """
    hits = 0
    for namespace, assign in _package_namespaces():
        for key, value in list(namespace.items()):
            try:
                new = replacements[value]
            except (KeyError, TypeError):  # not a target, or unhashable
                continue
            hits += 1
            if new is not None:
                assign(key, new)
    return hits
