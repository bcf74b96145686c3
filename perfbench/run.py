"""Benchmark for the champagne package.

    python3 perfbench/run.py --workload ladder --seed 20 --seconds 60 --trace 0

Runs one workload (ladder or floor_density, see README.md) built
from --seed, repeating it until --seconds have passed, and checks every
output.  With --trace 0 it reports the end-to-end metrics; with --trace 1
it reports the per-layer metrics from a traced run and the tracing
overhead.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; a readable table and a
full record in perfbench/out/ come before it.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()   # the window runs from here, imports included

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 20

# after each pass the set-up is repeated alone until set-up-only repeats
# have used SETUP_SHARE of the time so far, so that setup_s is a median of
# samples spread over the whole window, as the passes are
SETUP_SHARE = 0.15
# kept free at the end of the window for the result record and output
FINISH_S = 0.5


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ladder", "floor_density"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help=f"record this run's estimate hashes as the reference (seed {DEFAULT_SEED} only)")
    return p.parse_args(argv)


def machine() -> dict:
    import numpy
    import scipy

    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    def __init__(self, workload, seed, scratch):
        from workloads import Ledger

        self.wl = workload
        self.seed = seed
        self.scratch = scratch
        self.ledger = Ledger()
        self.setup_times = []
        self.setup_only_s = 0.0    # time spent in set-up-only repeats
        self.iterations = []       # dicts: kind, wall_s, cost_s, ests

    def setup(self):
        t0 = time.perf_counter()
        state = self.wl.setup(self.seed, self.ledger, self.scratch)
        self.setup_times.append(time.perf_counter() - t0)
        return state

    def iterate(self, tracer=None, kind="plain"):
        """One full pass: set-up and the timed calls, traced when a tracer
        is given, then the untimed checks.  Its cost, checks included, is
        what the next pass is expected to take."""
        if tracer is not None:
            tracer.begin_iteration()
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = self.setup()
            out = self.wl.run(state, self.ledger)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        ests = self.wl.estimates(state, out)
        self.wl.check(state, out, ests, self.ledger)
        self.iterations.append({"kind": kind, "wall_s": wall,
                                "cost_s": time.perf_counter() - t0, "ests": ests})
        return tracer.summary() if tracer is not None else None

    def typical_cost(self, kind="plain") -> float:
        return statistics.median(it["cost_s"] for it in self.iterations if it["kind"] == kind)

    def repeat_setup(self, deadline, share=SETUP_SHARE):
        """Set-up-only repeats up to share of the time since STARTED."""
        while (self.setup_only_s < share * (time.perf_counter() - STARTED)
               and time.perf_counter() + statistics.median(self.setup_times) < deadline):
            t0 = time.perf_counter()
            self.setup()
            self.setup_only_s += time.perf_counter() - t0


def tta_s(ests) -> float:
    """Projected walk seconds for every estimate to reach a 95% half-width of 1e-3."""
    from workloads import half_width

    return sum(est.wall_time * (half_width(est) / 1e-3) ** 2 for _, est in ests)


def e2e_metrics(runner):
    """The end-to-end metrics, and tta_s, which is printed but not gated
    (see README.md)."""
    its = runner.iterations
    metrics = {
        "wall_s": statistics.median(it["wall_s"] for it in its),
        "setup_s": statistics.median(runner.setup_times),
        # pooled over every estimate of the run: on floor10k each pass
        # walks for well under a second, too short for a per-pass median
        "steps_per_s": (sum(est.steps_total for it in its for _, est in it["ests"])
                        / sum(est.wall_time for it in its for _, est in it["ests"])),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {"tta_s": statistics.median(tta_s(it["ests"]) for it in its)}


def run_untraced(runner, deadline):
    """Passes, each followed by its share of set-up-only repeats, while the
    next pass and its repeats fit before the deadline; then set-up-only
    repeats fill what is left of the window."""
    while True:
        runner.iterate()
        runner.repeat_setup(deadline)
        if time.perf_counter() + (1 + SETUP_SHARE) * runner.typical_cost() > deadline:
            break
    runner.repeat_setup(deadline, share=1.0)
    return e2e_metrics(runner)


def memory_pass(runner, tracer):
    """The set-up and the calls that hold a memory span, traced with
    tracemalloc on inside those spans.  tracemalloc slows every
    allocation, so these calls run apart and their timings are not used."""
    wl = runner.wl
    tracer.track_memory = True
    tracer.begin_iteration()
    tracer.install()
    try:
        wl.memory(wl.setup(runner.seed, runner.ledger, runner.scratch), runner.ledger)
    finally:
        tracer.uninstall()
        tracer.track_memory = False


def run_traced(runner, deadline):
    """The memory pass and the threads=nproc rung first, then alternate
    untraced and traced passes while the next pair fits before the
    deadline, then the stream draw."""
    from tracer import Tracer

    tracer = Tracer()
    memory_pass(runner, tracer)
    est_n = threads_n_estimate(runner)
    summaries = []
    while True:
        runner.iterate()
        summaries.append(runner.iterate(tracer, kind="traced"))
        pair = runner.typical_cost() + runner.typical_cost("traced")
        if time.perf_counter() + pair > deadline:
            break

    # times are medians over the traced passes; counts come from the first
    # and must repeat exactly in every other
    counts = {k: summaries[0][k] for k in tracer.counts}
    metrics = {k: statistics.median(s[k] for s in summaries)
               for k in summaries[0] if k not in counts}
    metrics.update(counts)
    runner.ledger.attempted += 1
    if any({k: s[k] for k in counts} != counts for s in summaries):
        runner.ledger.fail("layer counts differ between traced passes")
    metrics.update(tracer.peak_metrics())
    walls = {kind: [it["wall_s"] for it in runner.iterations if it["kind"] == kind]
             for kind in ("plain", "traced")}
    metrics["trace.overhead_s"] = (statistics.median(walls["traced"])
                                   - statistics.median(walls["plain"]))
    metrics["walker.tta_s"] = statistics.median(
        tta_s(it["ests"]) for it in runner.iterations if it["kind"] == "traced")
    metrics.update(parallel_metrics(runner, est_n))
    metrics.update(stream_metrics(runner.seed, counts["walker.steps"]))
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{runner.wl.name}-seed{runner.seed}.json"),
                {"workload": runner.wl.name, "seed": runner.seed,
                 "iteration_kinds": [it["kind"] for it in runner.iterations]})
    return metrics, {}


def threads_n_estimate(runner):
    """The ladder's parallel rung at threads=nproc on freshly built inputs
    (None on other workloads)."""
    wl = runner.wl
    if wl.name != "ladder":
        return None
    dom = wl.parallel_domain(runner.seed, runner.ledger)
    return runner.ledger.op(wl.estimate, dom, os.cpu_count() or 1)


def parallel_metrics(runner, est_n) -> dict:
    """threads=1 vs threads=nproc on the ladder's parallel rung (0 on other
    workloads).  The threads=1 figures are the untraced passes' estimates
    of that rung; the threads=nproc estimate must equal them byte for byte."""
    from workloads import sha

    if est_n is None:
        return dict.fromkeys(("walker.t1_s", "walker.tN_s", "walker.parallel_eff"), 0.0)
    label = runner.wl.label(*runner.wl.parallel_rung)
    rung = [est for it in runner.iterations if it["kind"] == "plain"
            for lab, est in it["ests"] if lab == label]
    n = os.cpu_count() or 1
    if sha(est_n) != sha(rung[0]):
        runner.ledger.fail(f"{label}: threads={n} result differs from the passes")
    t1 = statistics.median(est.wall_time for est in rung)
    return {"walker.t1_s": t1, "walker.tN_s": est_n.wall_time,
            "walker.parallel_eff": t1 / (n * est_n.wall_time)}


def stream_metrics(seed, n_uniforms) -> dict:
    """Time to draw the traced pass's walker.steps uniforms in 8192-key batches."""
    import numpy as np
    from champagne.streams import stream_keys, uniforms_at

    batch = 8192
    t0 = time.perf_counter()
    keys = stream_keys(seed, np.arange(batch, dtype=np.uint64))
    drawn = 0
    t = 0
    while drawn < n_uniforms:
        m = min(batch, n_uniforms - drawn)
        uniforms_at(keys[:m], t)
        drawn += m
        t += 1
    return {"streams.draw_s": time.perf_counter() - t0, "streams.uniforms": drawn}


def determinism(runner) -> tuple:
    """Every pass of the run must return byte-identical estimates."""
    from workloads import sha

    shas = [[sha(est) for _, est in it["ests"]] for it in runner.iterations]
    runner.ledger.attempted += 1
    if any(s != shas[0] for s in shas):
        runner.ledger.fail("estimate hashes differ between passes of the same inputs")
    return shas[0]


def sha_match(workload, seed, shas):
    if seed != DEFAULT_SEED or not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)["shas"].get(workload)
    return None if ref is None else ref == shas


def write_reference(workload, shas):
    ref = {"default_seed": DEFAULT_SEED, "machine": machine(), "shas": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    ref["machine"] = machine()
    ref["shas"][workload] = shas
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "champagne", "__init__.py")):
        print(f"error: no champagne package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        print(f"error: --write-reference needs --seed {DEFAULT_SEED} --trace 0", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, sha

    scratch = os.path.join(OUT, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    runner = Runner(WORKLOADS[args.workload], args.seed, scratch)
    units = declared_units(args.trace)
    error = None
    try:
        deadline = STARTED + args.seconds - FINISH_S
        metrics, extras = (run_traced if args.trace else run_untraced)(runner, deadline)
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
        shas = determinism(runner)
    except Exception as exc:  # a failed operation ends the run; it is reported, not hidden
        error = repr(exc)
        metrics, extras, shas = {}, {}, []
        if runner.ledger.failed == 0:
            runner.ledger.attempted += 1
            runner.ledger.fail(error)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    led = runner.ledger
    match = sha_match(args.workload, args.seed, shas) if shas else None
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "iterations": len(runner.iterations), "setups": len(runner.setup_times),
        "iterations_kind_wall_s": [(it["kind"], it["wall_s"]) for it in runner.iterations],
        "setup_s": runner.setup_times,
        "attempted": led.attempted, "failed": led.failed,
        "failed_frac": led.failed / led.attempted,
        "notes": led.notes, "error": error, "sha_match": match,
        "estimates": [{"label": label, "sha": sha(est), "wall_time": est.wall_time,
                       **est.canonical_dict()} for label, est in runner.iterations[0]["ests"]]
        if runner.iterations else [],
        "metrics": metrics, "not_gated": extras,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.write_reference and not error:
        write_reference(args.workload, shas)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(runner.iterations)}  set-ups {len(runner.setup_times)}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for k, v in metrics.items():
        print(f"  {k:36s} {v:.6g} {units[k]}")
    for k, v in extras.items():
        print(f"  {k:36s} {v:.6g} s (printed, not gated)")
    print(f"  {'failed_frac':36s} {record['failed_frac']:.6g} ({led.failed}/{led.attempted})")
    print(f"  {'sha_match':36s} {'n/a (not the default seed)' if match is None else match}")
    for note in led.notes:
        print(f"  ! {note}")
    result = {
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
