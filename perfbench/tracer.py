"""Span tracer that measures the champagne layers from outside.

Installing the tracer wraps the public callables of each layer module in
spans (name, start, end, parent).  A callable is patched under every name
it is bound to in the package, so the names other modules import (for
example ``harmonic_density.estimate_measure`` or ``cli.estimate_measure``)
are traced too.  Spans and counters are kept in memory; ``summary`` turns
one iteration's spans into the per-layer metrics and ``dump`` writes the
raw spans at the end of a run.

``hyperbolic`` and ``errors`` get no spans: their array helpers run inside
the layers that call them and are part of those layers' self time.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import tracemalloc

import champagne
from champagne import barriers, cli, domains, harmonic_density, sequences, spatial, walker
from champagne.errors import WalkBudgetError

_MODULES = (champagne, barriers, cli, domains, harmonic_density, sequences, spatial, walker)
LAYERS = ("walker", "spatial", "domains", "cli", "sequences", "harmonic_density", "barriers")

# (module, attribute, span name); a span name is "<layer>.<callable>"
_FUNCTIONS = (
    (sequences, "generate_ring_lattice", "sequences.generate"),
    (sequences, "diagnose", "sequences.diagnose"),
    (sequences, "separation", "sequences.separation"),
    (sequences, "covering_radius", "sequences.covering_radius"),
    (sequences, "probe_lattice", "sequences.probe_lattice"),
    (sequences, "uniform_density", "sequences.uniform_density"),
    (domains, "build_champagne", "domains.build_champagne"),
    (domains, "build_finitely_connected", "domains.build_fc"),
    (domains, "criterion_tail_integral", "domains.tail_integral"),
    (walker, "estimate_measure", "walker.estimate"),
    (walker, "sandwich_bounds", "walker.sandwich_bounds"),
    (harmonic_density, "theorem2_report", "harmonic_density.theorem2_report"),
    (harmonic_density, "harmonic_density_curve", "harmonic_density.curve"),
    (barriers, "barrier_lower_bound", "barriers.barrier_lower_bound"),
    (cli, "main", "cli.measure"),
)
# (class, method, span name)
_METHODS = (
    (domains.ChampagneDomain, "save", "domains.save"),
    (domains.ChampagneDomain, "load", "domains.load"),
    (domains.ChampagneDomain, "build_index", "domains.build_index"),
    (spatial.DiskGridIndex, "__init__", "spatial.index_build"),
)
# spans whose peak traced allocation is recorded in the memory pass
_MEMORY_SPANS = ("sequences.separation", "sequences.uniform_density", "domains.build_champagne")

# per-layer metric -> total duration of the spans with this name
_TIME_METRICS = {
    "walker.estimate_s": "walker.estimate",
    "spatial.index_build_s": "spatial.index_build",
    "domains.build_champagne_s": "domains.build_champagne",
    "domains.tail_integral_s": "domains.tail_integral",
    "domains.build_fc_s": "domains.build_fc",
    "domains.save_s": "domains.save",
    "domains.load_s": "domains.load",
    "cli.measure_s": "cli.measure",
    "sequences.separation_s": "sequences.separation",
    "sequences.covering_radius_s": "sequences.covering_radius",
    "sequences.uniform_density_s": "sequences.uniform_density",
    "harmonic_density.curve_s": "harmonic_density.curve",
    "barriers.barrier_lower_bound_s": "barriers.barrier_lower_bound",
}
COUNT_METRICS = (
    "walker.calls", "walker.steps", "walker.steps_max", "walker.hits_truncation",
    "walker.budget_errors", "spatial.index_builds", "spatial.candidates", "spatial.pointlike",
    "domains.bubbles", "sequences.points", "sequences.probes",
    "harmonic_density.probe_domains", "harmonic_density.walks_used",
    "barriers.boundary_samples",
)


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.track_memory = False
        self.spans = []            # [span_id, name, t0, t1, parent_id]
        self._first = 0            # first span of the current iteration
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.peaks_mb = {name: 0.0 for name in _MEMORY_SPANS}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        self._hooks = {
            "sequences.generate": self._on_generate,
            "sequences.uniform_density": self._on_uniform_density,
            "domains.build_champagne": self._on_domain,
            "domains.build_fc": self._on_domain,
            "walker.estimate": self._on_estimate,
            "harmonic_density.curve": self._on_curve,
            "barriers.barrier_lower_bound": self._on_barrier,
            "spatial.index_build": self._on_index,
        }

    # -- installation -------------------------------------------------------

    def install(self):
        for module, attr, name in _FUNCTIONS:
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, name)
            for m in _MODULES:
                if getattr(m, attr, None) is orig:
                    self._undo.append((m, attr, orig))
                    setattr(m, attr, wrapped)
        for cls, attr, name in _METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name))
            else:
                patched = self._wrap(raw, name)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, patched)
        raw = spatial.DiskGridIndex.__dict__["gather_candidates"]
        self._undo.append((spatial.DiskGridIndex, "gather_candidates", raw))
        spatial.DiskGridIndex.gather_candidates = self._count_candidates(raw)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def begin_iteration(self):
        """Start a new iteration: counters restart, spans accumulate."""
        self._first = len(self.spans)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        hook = self._hooks.get(name)
        memory = name in _MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                span = [len(self.spans), name, 0.0, 0.0, parent[0] if parent else -1]
                self.spans.append(span)
            stack.append(span)
            started_memory = self.track_memory and memory and not tracemalloc.is_tracing()
            if started_memory:
                tracemalloc.start()
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except WalkBudgetError:
                if name == "walker.estimate":
                    self._add("walker.budget_errors", 1)
                raise
            finally:
                span[3] = time.perf_counter()
                if started_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks_mb[name] = max(self.peaks_mb[name], peak)
                stack.pop()
            if hook is not None:
                hook(args, result, parent[1] if parent else "")
            return result

        return traced

    def _count_candidates(self, fn):
        @functools.wraps(fn)
        def counted(index, cells):
            out = fn(index, cells)
            self._add("spatial.candidates", int(out[1].size))
            return out

        return counted

    def _add(self, key, value):
        # the walker calls the spatial layer from worker threads
        with self._lock:
            self.counts[key] += value

    # -- counters at layer boundaries ---------------------------------------

    def _on_generate(self, args, seq, parent_name):
        # probe lattices are sequences built inside the sequences layer
        if _layer(parent_name) != "sequences":
            self._add("sequences.points", len(seq))

    def _on_uniform_density(self, args, est, parent_name):
        self._add("sequences.probes", est.n_probes)

    def _on_domain(self, args, dom, parent_name):
        self._add("domains.bubbles", dom.n_bubbles)

    def _on_estimate(self, args, est, parent_name):
        self._add("walker.calls", 1)
        self._add("walker.steps", est.steps_total)
        self._add("walker.hits_truncation", est.hits_truncation)
        with self._lock:
            self.counts["walker.steps_max"] = max(self.counts["walker.steps_max"], est.steps_max)

    def _on_curve(self, args, curve, parent_name):
        for results in curve.per_r:
            for probe in results:
                if probe.estimate is not None:
                    self._add("harmonic_density.probe_domains", 1)
                self._add("harmonic_density.walks_used", probe.n_walks_used)

    def _on_barrier(self, args, cert, parent_name):
        self._add("barriers.boundary_samples", cert.sample_density * len(cert.per_bubble_min))

    def _on_index(self, args, result, parent_name):
        index = args[0]
        self._add("spatial.index_builds", 1)
        self._add("spatial.pointlike", int(index.pointlike.sum()))

    # -- summaries ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer times (s) and counts of the current iteration."""
        spans = self.spans[self._first:]
        names = {s[0]: s[1] for s in spans}
        total = {}
        child = {}
        estimate_in_cli = 0.0
        for sid, name, t0, t1, parent in spans:
            d = t1 - t0
            total[name] = total.get(name, 0.0) + d
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + d
        layer_self = dict.fromkeys(LAYERS, 0.0)
        generate_s = 0.0
        for sid, name, t0, t1, parent in spans:
            parent_name = names.get(parent, "")
            layer_self[_layer(name)] += (t1 - t0) - child.get(sid, 0.0)
            if name == "sequences.generate" and _layer(parent_name) != "sequences":
                generate_s += t1 - t0
            if name == "walker.estimate" and self._within(sid, "cli.measure"):
                estimate_in_cli += t1 - t0
        out = {metric: total.get(span, 0.0) for metric, span in _TIME_METRICS.items()}
        out["sequences.generate_s"] = generate_s
        out["cli.overhead_s"] = out["cli.measure_s"] - estimate_in_cli
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        out.update(self.counts)
        return out

    def _within(self, sid, ancestor_name) -> bool:
        parent = self.spans[sid][4]
        while parent >= 0:
            if self.spans[parent][1] == ancestor_name:
                return True
            parent = self.spans[parent][4]
        return False

    def peak_metrics(self) -> dict:
        return {f"{name}_peak_mb": mb for name, mb in self.peaks_mb.items()}

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in self.spans]}, fh)
