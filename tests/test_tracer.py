"""The benchmark's span tracer (perfbench/tracer.py) patches package
callables and methods by name, so a rename in the package breaks traced
benchmark runs; this runs it on a small pipeline, and the benchmark's
own draw of stream uniforms."""

import importlib.util
import pathlib

import numpy as np

import champagne as ch

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def test_tracer_records_the_spans_of_a_small_pipeline(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    original = ch.estimate_measure
    tracer = Tracer()
    tracer.install()
    try:
        seq = ch.PointSequence(np.array([0.5 + 0j]))
        dom = ch.build_champagne(seq, ch.const_profile(0.25), 1.0)
        path = tmp_path / "dom.json"
        dom.save(path)
        ch.estimate_measure(ch.ChampagneDomain.load(path), 0j, n_walks=50, seed=1)
        fc = ch.build_finitely_connected(ch.generate_ring_lattice(0.5, 1.5, 4, seed=2), 0j,
                                         r=1 - 2.0 ** -4)
        ch.barrier_lower_bound(fc, eta=0.5)
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {"domains.build_champagne", "domains.save", "domains.load",
            "walker.estimate", "barriers.barrier_lower_bound"} <= names
    # the barrier hook reads the certificate's sample density and bubble minima
    assert tracer.counts["barriers.boundary_samples"] == 64 * fc.n_bubbles > 0
    assert ch.estimate_measure is original


def test_the_benchmark_draws_stream_uniforms():
    # stream_metrics times streams.stream_keys and uniforms_at: renaming
    # either breaks every traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.stream_metrics(20, 100)["streams.uniforms"] == 100
