"""Span tracing of etainv's layers, done entirely from outside the package.

``Tracer.installed()`` replaces the public functions and methods named in
``LAYERS`` with wrappers that record one span per call (name, start, end,
parent span, request id), counts ``Fraction`` constructions, and puts every
original back on exit.  Spans stay in memory until ``write_spans``.

A function imported by name into another module is one object under several
names, so every etainv module attribute and class attribute that holds the
original is replaced (this also covers ``__rmul__ = __mul__``).
"""

from __future__ import annotations

import contextlib
import csv
import fractions
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "cli": ("main",),
    "invariants": (
        "relative_eta", "local_datum", "decompose_affine_in_t", "ahat_Bc", "family_scan",
        "a1_poly_in_s", "find_good_s", "a1_direct", "a1_residue",
    ),
    "cohring": (
        "CohClass.__init__", "CohClass.__mul__", "CohClass.__pow__",
        "coh_eval_series", "coh_integrate",
    ),
    "series": (
        "PowerSeries.__mul__", "PowerSeries.divide", "PowerSeries.revert",
        "PowerSeries.compose", "PowerSeries.__pow__", "ps_exp",
    ),
    "coeffcore": ("UniPoly.__init__", "UniPoly.__mul__"),
    "zcohomology": ("snf", "cohomology_Mbar"),
    "verify": ("run_paper_suite",),
}

# Spans whose distinct argument tuples are counted: repeated arguments are repeated work.
DISTINCT = ("invariants.ahat_Bc", "invariants.decompose_affine_in_t")

# Per-call time bucketed by k, so that growth in k shows.
K_BUCKETS = {
    "invariants.relative_eta": ((2, 4), (5, 8), (9, 12), (13, 16)),
    "invariants.a1_poly_in_s": ((2, 6), (7, 12), (13, 18), (19, 24)),
}

CACHES = ("_ahat_factor", "_inv_two_cosh")


def _k_of(arguments: dict) -> int:
    return arguments["params"].k if "params" in arguments else arguments["k"]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, request id)
        self.request_id = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.rational_new = 0
        self.distinct = defaultdict(set)
        self.by_k = defaultdict(list)  # name -> [(k, seconds)]
        self._open = []  # [span index, child seconds] of each open span
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn) if name in DISTINCT or name in K_BUCKETS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1][0] if tracer._open else -1
            tracer.spans.append(None)
            tracer._open.append([index, 0.0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child_s = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][1] += end - start
                tracer.spans[index] = (name, start, end, parent, tracer.request_id)
                tracer.calls[name] += 1
                tracer.self_s[name] += end - start - child_s
                tracer.total_s[name] += end - start
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if name in DISTINCT:
                        tracer.distinct[name].add(tuple(bound.arguments.values()))
                    else:
                        tracer.by_k[name].append((_k_of(bound.arguments), end - start))

        return traced

    def _replace(self, owner, original, replacement):
        for attribute, value in list(vars(owner).items()):
            if value is original:
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, replacement)

    @contextlib.contextmanager
    def installed(self, suite):
        """Wrap every layer function, each entry of the verify ``suite`` list, and Fraction()."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "etainv"]
        saved_suite = list(suite)
        try:
            for layer, names in LAYERS.items():
                module = sys.modules[f"etainv.{layer}"]
                for qualname in names:
                    owner_name, _, attr = qualname.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name else module
                    original = vars(owner)[attr]
                    wrapped = self._wrap(f"{layer}.{qualname}", original)
                    for holder in [owner] if owner_name else modules:
                        self._replace(holder, original, wrapped)
            suite[:] = [(name, self._wrap(f"verify.{name}", check)) for name, check in saved_suite]
            new = fractions.Fraction.__dict__["__new__"]
            self._patches.append((fractions.Fraction, "__new__", new))

            def counted_new(cls, *args, **kwargs):
                self.rational_new += 1
                return new.__func__(cls, *args, **kwargs)

            fractions.Fraction.__new__ = staticmethod(counted_new)
            yield self
        finally:
            for owner, attribute, original in reversed(self._patches):
                setattr(owner, attribute, original)
            self._patches.clear()
            suite[:] = saved_suite

    def metrics(self, caches: dict, criteria) -> dict:
        """Per-layer figures by metric name.

        ``caches`` maps a cache name to its cache_info(); ``criteria`` are the
        verify suite's criterion names, each reported as inclusive seconds.
        """
        out = {}
        for layer, names in LAYERS.items():
            for qualname in names:
                name = f"{layer}.{qualname}"
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_s[name]
        out["coeffcore.rational_new.calls"] = self.rational_new
        for criterion in criteria:
            out[f"verify.{criterion}.s"] = self.total_s[f"verify.{criterion}"]
        for name in DISTINCT:
            calls = self.calls[name]
            out[f"{name}.distinct_ratio"] = len(self.distinct[name]) / calls if calls else 0.0
        for name, buckets in K_BUCKETS.items():
            for lo, hi in buckets:
                times = [s for k, s in self.by_k[name] if lo <= k <= hi]
                key = f"{name}.ms_per_call.k{lo:02d}-{hi:02d}"
                out[key] = 1000 * sum(times) / len(times) if times else 0.0
        for name, info in caches.items():
            lookups = info.hits + info.misses
            out[f"invariants.{name}.hits"] = info.hits
            out[f"invariants.{name}.misses"] = info.misses
            out[f"invariants.{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out

    def write_spans(self, path):
        """Write every span as CSV; times are seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_s", "end_s", "parent", "request"])
            for name, start, end, parent, request in self.spans:
                writer.writerow([name, f"{start - origin:.7f}", f"{end - origin:.7f}", parent, request])
