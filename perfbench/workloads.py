"""The benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), runs the library calls under test in ``run`` (timed), and checks
the outputs in ``check`` (untimed).  The library receives only the
generated inputs.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import champagne as ch
from champagne import cli

_SCHEMA = os.path.join(os.path.dirname(cli.__file__), "schema", "artifact.schema.json")


def sha(est) -> str:
    """sha256 of MeasureEstimate.canonical_json(), the estimate's identity."""
    return hashlib.sha256(est.canonical_json().encode()).hexdigest()


def half_width(est) -> float:
    """Half-width of the estimate's 95% Wilson interval."""
    return 0.5 * (est.ci_high - est.ci_low)


class Ledger:
    """Operations attempted and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.notes.append(f"{getattr(fn, '__name__', fn)} raised {exc!r}")
            raise

    def fail(self, note: str):
        """Mark an operation already counted as attempted as failed."""
        self.failed += 1
        self.notes.append(note)


def check_sandwich(ledger, label, est, bounds):
    """The estimate must lie in [lower_union - 3 sigma, upper_single + 3 sigma]."""
    if not bounds.lower_union - 3 * est.sigma <= est.estimate <= bounds.upper_single + 3 * est.sigma:
        ledger.fail(f"{label}: estimate {est.estimate} outside the sandwich bounds")


class Ladder:
    """Acceptance-5 truncation ladder: walk-bound, single-threaded."""

    name = "ladder"
    profiles = ("expinv:1,1", "power:0.1,2")
    exponents = (4, 6, 8)            # R = 1 - 2^-k
    n_walks = 20_000
    walk_seed = 77
    # threads=0 ("auto", two threads here) moved pass times by up to 1.35x
    # between minutes on a shared 2-core VM, against 1.17x for one thread;
    # the traced run times parallel_rung at threads=nproc against the
    # passes' threads=1 estimate of it instead
    threads = 1
    parallel_rung = ("expinv:1,1", 6)

    def setup(self, seed, ledger, scratch):
        seq = ledger.op(ch.generate_ring_lattice, 0.5, 2, 8, seed=seed)
        return [(spec, k, self.build_rung(seq, spec, k, ledger))
                for spec in self.profiles for k in self.exponents]

    def parallel_domain(self, seed, ledger):
        """parallel_rung alone, built from the seed as setup builds it."""
        seq = ledger.op(ch.generate_ring_lattice, 0.5, 2, 8, seed=seed)
        return self.build_rung(seq, *self.parallel_rung, ledger)

    def build_rung(self, seq, spec, k, ledger):
        dom = ledger.op(ch.build_champagne, seq, ch.parse_profile(spec), 1.0 - 2.0 ** -k)
        ledger.op(dom.build_index, 512)
        return dom

    def memory(self, rungs, ledger):
        """The calls after set-up that hold a memory span: none, the
        set-up holds build_champagne."""

    def estimate(self, dom, threads):
        return ch.estimate_measure(dom, 0j, n_walks=self.n_walks, seed=self.walk_seed,
                                   threads=threads)

    def run(self, rungs, ledger):
        return [ledger.op(self.estimate, dom, self.threads) for _, _, dom in rungs]

    def estimates(self, rungs, out):
        return [(self.label(spec, k), est) for (spec, k, _), est in zip(rungs, out)]

    def check(self, rungs, out, ests, ledger):
        for (_, _, dom), (label, est) in zip(rungs, ests):
            check_sandwich(ledger, label, est, ch.sandwich_bounds(dom))

    def label(self, spec, k):
        return f"{spec} R=1-2^-{k}"


class Floor10k:
    """Acceptance-8 performance floor: 10,230 bubbles, set-up-bound."""

    name = "floor10k"
    expected_bubbles = 10_230
    n_walks = 4000

    def setup(self, seed, ledger, scratch):
        seq = ledger.op(ch.generate_ring_lattice, 0.5, 5, 10, seed=seed)
        dom = ledger.op(ch.build_champagne, seq, ch.power_profile(0.05, 2), 1.0 - 2.0 ** -10)
        path = os.path.join(scratch, "floor10k-domain.json")
        ledger.op(dom.save, path)
        return {"seed": seed, "dom": dom, "path": path,
                "out": os.path.join(scratch, "floor10k-measure.json")}

    def memory(self, state, ledger):
        """The calls after set-up that hold a memory span: none, the
        set-up holds build_champagne."""

    def run(self, state, ledger):
        rc = ledger.op(cli.main, ["measure", "--domain", state["path"], "--walks",
                                  str(self.n_walks), "--threads", "1",
                                  "--seed", str(state["seed"]), "-o", state["out"]])
        bounds = ledger.op(ch.sandwich_bounds, state["dom"])
        return rc, bounds

    def estimates(self, state, out):
        with open(state["out"], encoding="utf-8") as fh:
            result = json.load(fh)["result"]
        fields = {f.name: result[f.name] for f in dataclasses.fields(ch.MeasureEstimate)}
        fields["steps_hist"] = tuple(fields["steps_hist"])
        return [("cli measure", ch.MeasureEstimate(**fields))]

    def check(self, state, out, ests, ledger):
        import jsonschema

        rc, bounds = out
        if state["dom"].n_bubbles != self.expected_bubbles:
            ledger.fail(f"built {state['dom'].n_bubbles} bubbles, expected {self.expected_bubbles}")
        if rc != 0:
            ledger.fail(f"cli measure exited {rc}")
        with open(state["out"], encoding="utf-8") as fh:
            envelope = json.load(fh)
        with open(_SCHEMA, encoding="utf-8") as fh:
            schema = json.load(fh)
        try:
            jsonschema.validate(envelope, schema)
        except jsonschema.ValidationError as exc:
            ledger.fail(f"cli envelope does not match the schema: {exc.message}")
        for label, est in ests:
            check_sandwich(ledger, label, est, bounds)


class Density12:
    """Theorem-2 density curves on a 12-ring lattice: many short walks."""

    name = "density12"
    r_values = (1.0 - 2.0 ** -6, 1.0 - 2.0 ** -8)
    fc_r = 1.0 - 2.0 ** -8

    def setup(self, seed, ledger, scratch):
        seq = ledger.op(ch.generate_ring_lattice, 0.5, 2, 12, seed=seed)
        seq10 = ledger.op(ch.generate_ring_lattice, 0.5, 2, 10, seed=seed)
        fc = ledger.op(ch.build_finitely_connected, seq, 0j, r=self.fc_r)
        ledger.op(lambda: fc.index)     # the barrier would build it lazily
        return {"seed": seed, "seq": seq, "seq10": seq10, "fc": fc}

    def memory(self, state, ledger):
        """The calls after set-up that hold a memory span: separation,
        inside diagnose, and the direct uniform_density.  The theorem-2
        uniform_density calls take at most 8 probes and peak lower."""
        self.diagnose(state, ledger)
        self.density(state, ledger)

    def diagnose(self, state, ledger):
        return ledger.op(ch.diagnose, state["seq"])

    def density(self, state, ledger):
        return ledger.op(ch.uniform_density, state["seq10"], [0.9, 0.99], mode="both")

    def run(self, state, ledger):
        seq = state["seq"]
        mc = ch.McParams(n_walks=5000, seed=state["seed"], threads=0)
        return {
            "diag": self.diagnose(state, ledger),
            "cover": ledger.op(ch.covering_radius, seq, 0.9),
            "t2": ledger.op(ch.theorem2_report, seq, list(self.r_values),
                            ch.ProbeSpec(max_probes=8), mc),
            "barrier": ledger.op(ch.barrier_lower_bound, state["fc"], eta=0.5),
            "density": self.density(state, ledger),
        }

    def _probes(self, out):
        t2 = out["t2"]
        for detail in (t2.lower_detail, t2.upper_detail):
            for r, results in zip(detail.r_values, detail.per_r):
                for p in results:
                    if p.estimate is not None:
                        yield detail.mode, r, p

    def estimates(self, state, out):
        return [(f"theorem2 {mode} r={r:.8g} z={p.probe:.6g}", p.estimate)
                for mode, r, p in self._probes(out)]

    def check(self, state, out, ests, ledger):
        t2 = out["t2"]
        curves = (t2.uniform_lower, t2.uniform_upper, t2.harmonic_lower, t2.harmonic_upper)
        if not all(math.isfinite(v) for c in curves for v in c):
            ledger.fail(f"theorem2 curves are not finite: {curves}")
        upper = ch.sandwich_bounds(state["fc"]).upper_single
        if not out["barrier"].exterior_lower <= upper:
            ledger.fail(f"barrier {out['barrier'].exterior_lower} above sandwich upper {upper}")
        # the probe domain is the finitely connected domain around the
        # probe; its sandwich bounds at the probe match those at the origin
        # of the transported copy the estimate walked on
        for (mode, r, p), (label, est) in zip(self._probes(out), ests):
            dom = ch.build_finitely_connected(state["seq"], p.probe, r=r)
            check_sandwich(ledger, label, est, ch.sandwich_bounds(dom, p.probe))


class Together:
    """Several workloads run back to back as one pass."""

    def __init__(self, name, *parts):
        self.name = name
        self.parts = parts

    def setup(self, seed, ledger, scratch):
        return [p.setup(seed, ledger, scratch) for p in self.parts]

    def memory(self, states, ledger):
        for p, s in zip(self.parts, states):
            p.memory(s, ledger)

    def run(self, states, ledger):
        return [p.run(s, ledger) for p, s in zip(self.parts, states)]

    def estimates(self, states, outs):
        return [e for p, s, o in zip(self.parts, states, outs) for e in p.estimates(s, o)]

    def check(self, states, outs, ests, ledger):
        for p, s, o in zip(self.parts, states, outs):
            p.check(s, o, p.estimates(s, o), ledger)


# floor10k and density12 share one workload so that each run is long
# enough to hold several passes of both (see README.md)
WORKLOADS = {w.name: w for w in (Ladder(), Together("floor_density", Floor10k(), Density12()))}
