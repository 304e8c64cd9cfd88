"""Timing spans around the public functions of each ppoptics module.

A traced job swaps every public function and public method of the layer
modules for a timing wrapper (`Tracer.patch`) and puts the originals back
afterwards (`Tracer.restore`).  The program itself is unchanged: spans are
taken on the caller's side of each public call, so private helpers are
billed to the public function that calls them.  A span's self time is its
duration minus the durations of its direct child spans.

Counters are exact work counts taken from the arguments and results at the
same boundaries; none of them depends on timing.
"""

import functools
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "kernels", "gaussian_field", "samplers", "estimators", "wick", "fock", "builder")

_WRAPPED = "__perfbench_span__"

# A complex multiply-add is 4 real multiplies and 4 real adds.
_FLOPS_PER_CMAC = 8


def _expectation_flops(rho, ops) -> int:
    """Flops of fock.expectation, computed from shapes along its code path."""
    d = rho.matrix.shape[0]
    k = len(ops)
    if k == 0:
        cmacs = d
    elif rho.is_diagonal:
        if k == 1:
            cmacs = d
        elif k == 2:
            cmacs = 2 * d * d
        else:
            cmacs = (k - 2) * d**3 + 2 * d * d
    else:
        cmacs = (k - 1) * d**3 + d * d
    return _FLOPS_PER_CMAC * cmacs


def _sampler_counts(args, kwargs, result):
    yield "samplers.points", sum(len(c) for c in result)
    yield "samplers.replicates", len(result)


def _pcf_pairs(args, kwargs, result):
    yield "estimators.pairs", sum(len(c) * (len(c) - 1) // 2 for c in args[0])


COUNTERS = {
    "gaussian_field.embedding_spectrum": lambda a, k, r: [("gaussian_field.embedding_m", r.size)],
    "samplers.save_batch_csv": lambda a, k, r: [("samplers.csv_bytes", os.path.getsize(a[0]))],
    "estimators.estimate_pcf": _pcf_pairs,
    "kernels.hermite_functions": lambda a, k, r: [("kernels.hermite_rows", r.size)],
    "kernels.SpectralKernel.feature_matrix": lambda a, k, r: [("kernels.feature_rows", r.size)],
    "wick.permanent": lambda a, k, r: [("wick.permanent_terms", 2 ** len(a[0]))],
    "wick.enumerate_contractions": lambda a, k, r: [("wick.contractions", len(r))],
    "fock.expectation": lambda a, k, r: [("fock.expectation_flops", _expectation_flops(*a))],
}


def _is_sampler_batch(name: str) -> bool:
    return name.startswith("samplers.sample_") and name.endswith("_batch")


def _modespec_dimension(args, kwargs, result):
    if args and type(args[0]).__name__ == "ModeSpec":
        yield "fock.dimension_sum", args[0].dimension


class Tracer:
    """Collects spans and counts for one run; patches and restores the layers."""

    def __init__(self):
        self.modules = {name: sys.modules[f"ppoptics.{name}"] for name in LAYERS}
        self._originals = self._find_public()
        self._patched = []  # (owner, attribute, original __dict__ value)
        self.jobs = []  # one dict per traced job: {"self": {...}, "counts": {...}}
        self._spans = None

    def _find_public(self):
        """(owner, attribute, raw value, span name) for every public callable."""
        found = []
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    found.append((mod, attr, obj, f"{layer}.{attr}"))
                elif isinstance(obj, type):
                    for meth, raw in vars(obj).items():
                        if not meth.startswith("_") and isinstance(
                            raw, (types.FunctionType, classmethod, staticmethod)
                        ):
                            found.append((obj, meth, raw, f"{layer}.{attr}.{meth}"))
        return found

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name):
        counters = [c for c in (COUNTERS.get(name),) if c]
        if _is_sampler_batch(name):
            counters.append(_sampler_counts)
        if name.startswith("fock.") and name.count(".") == 1:
            counters.append(_modespec_dimension)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            spans = self._spans
            parent = spans["stack"][-1]
            index = len(spans["log"])
            record = [name, time.perf_counter(), None, parent]
            spans["log"].append(record)
            spans["stack"].append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                spans["stack"].pop()
            for counter in counters:
                for key, n in counter(args, kwargs, result):
                    spans["counts"][key] += n
            return result

        setattr(span, _WRAPPED, True)
        return span

    def _wrapper_for(self, raw, name):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(raw.__func__, name))
        return self._wrap(raw, name)

    def patch(self):
        """Swap every public callable, and every alias of it in ppoptics, for a span."""
        if self._patched:
            raise RuntimeError("the layers are already patched")
        self._spans = {"log": [], "stack": [None], "counts": defaultdict(int)}
        replace = {}
        for owner, attr, raw, name in self._originals:
            wrapper = self._wrapper_for(raw, name)
            replace[id(raw)] = (raw, wrapper)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrapper)
        # names imported from one module into another (e.g. samplers.embedding_spectrum)
        for modname, mod in list(sys.modules.items()):
            if modname != "ppoptics" and not modname.startswith("ppoptics."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def restore(self):
        """Put every original back; returns a list of attributes that did not restore."""
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, raw in self._patched
                 if vars(o).get(a) is not raw]
        self._patched = []
        for modname, mod in list(sys.modules.items()):
            if modname == "ppoptics" or modname.startswith("ppoptics."):
                for attr, obj in vars(mod).items():
                    if getattr(obj, _WRAPPED, False):
                        wrong.append(f"{modname}.{attr}")
                    if isinstance(obj, type):
                        wrong += [f"{modname}.{attr}.{m}" for m, v in vars(obj).items()
                                  if getattr(getattr(v, "__func__", v), _WRAPPED, False)]
        self._collect()
        return wrong

    def _collect(self):
        """Fold the last job's spans into self times and counts."""
        log = self._spans["log"]
        self_time = defaultdict(float)
        for name, start, end, _ in log:
            self_time[name] += end - start
        for _, start, end, parent in log:
            if parent is not None:
                self_time[log[parent][0]] -= end - start
        self.jobs.append({"self": dict(self_time), "counts": dict(self._spans["counts"])})
        self._spans = None

    # -- reporting ---------------------------------------------------------

    def per_layer(self, count_jobs: int) -> dict:
        """Per-job self times (mean over all traced jobs) and counts (mean over the first jobs).

        Counts are averaged over the first `count_jobs` traced jobs only, whose
        seeds are fixed, so they repeat exactly for a given workload seed.
        """
        n = len(self.jobs)
        total_self = defaultdict(float)
        for job in self.jobs:
            for name, t in job["self"].items():
                total_self[name] += t
        first = defaultdict(int)
        for job in self.jobs[:count_jobs]:
            for key, c in job["counts"].items():
                first[key] += c
        counts = {key: c / count_jobs for key, c in first.items()}

        def self_s(name):
            return total_self.get(name, 0.0) / n

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in total_self.items() if name.split(".")[0] == layer
            ) / n
        for name in (
            "cli.main",
            "gaussian_field.embedding_spectrum",
            "samplers.sample_permanental_batch",
            "samplers.sample_projection_dpp_batch",
            "samplers.sample_dpp_mixture_batch",
            "samplers.save_batch_csv",
            "samplers.load_batch_csv",
            "kernels.hermite_functions",
            "estimators.estimate_pcf",
            "estimators.pcf_to_csv",
            "wick.permanent",
            "wick.alpha_determinant",
            "wick.wick_expand",
            "fock.wick_verify",
            "fock.expectation",
            "fock.ladder",
            "fock.gaussian_density_matrix",
        ):
            out[f"{name}.self_s"] = self_s(name)
        out["kernels.feature_matrix.self_s"] = self_s("kernels.SpectralKernel.feature_matrix")

        sampled_s = sum(t for name, t in total_self.items() if _is_sampler_batch(name))
        all_points = sum(job["counts"].get("samplers.points", 0) for job in self.jobs)
        out["samplers.s_per_point"] = sampled_s / all_points if all_points else 0.0
        for key in (
            "gaussian_field.embedding_m",
            "samplers.points",
            "samplers.replicates",
            "samplers.csv_bytes",
            "estimators.pairs",
            "kernels.hermite_rows",
            "wick.permanent_terms",
            "wick.contractions",
            "fock.expectation_flops",
            "fock.dimension_sum",
        ):
            out[key] = counts.get(key, 0)
        rows = counts.get("kernels.hermite_rows", 0)
        out["kernels.hermite_rows_used_frac"] = (
            counts.get("kernels.feature_rows", 0) / rows if rows else 0.0
        )
        return out
