import math
import threading

import numpy as np
import pytest

import champagne as ch
from champagne import harmonic_density
from champagne.errors import ValidationError
from champagne.harmonic_density import (
    McParams,
    ProbeSpec,
    harmonic_density_curve,
    theorem2_report,
)
from champagne.hyperbolic import pseudo_distance_many
from champagne.walker import estimate_measure


def _mc(n=4000, seed=0, cap=100_000):
    return McParams(n_walks=n, seed=seed, pilot_walks=500, walk_cap=cap)


def test_an_empty_probe_set_is_refused():
    seq = ch.generate_ring_lattice(0.5, 2, 3, seed=1)
    for mode in ("lower", "upper"):
        with pytest.raises(ValidationError, match="the probe set is empty"):
            harmonic_density_curve(seq, [0.9], mode, ProbeSpec(points=()), _mc())
    with pytest.raises(ValidationError, match="the probe set is empty"):
        theorem2_report(seq, [0.9], ProbeSpec(points=()), _mc())


def test_empty_annuli_give_zero_curve():
    seq = ch.PointSequence(np.array([0.2 + 0j]))  # never in any (1/2, r) annulus around 0
    curve = harmonic_density_curve(seq, [0.9], "lower", ProbeSpec(points=(0j,)), _mc())
    assert curve.curve == (0.0,)
    assert curve.per_r[0][0].n_bubbles == 0
    assert curve.per_r[0][0].estimate is None  # omega = 1 exactly, no walks spent


def test_one_bubble_matches_closed_form():
    lam = 0.7 + 0j
    r = 0.9
    seq = ch.PointSequence(np.array([lam]))
    curve = harmonic_density_curve(seq, [r], "lower", ProbeSpec(points=(0j,)),
                                   _mc(n=20_000, seed=5))
    probe = curve.per_r[0][0]
    exact = -math.log(1 - ch.one_hole_exact(lam, 1 - r))
    assert probe.ci_low <= exact <= probe.ci_high
    assert curve.curve[0] == pytest.approx(exact, abs=0.05)


def test_curve_is_deterministic():
    seq = ch.generate_ring_lattice(0.5, 1.5, 6, seed=2)
    spec = ProbeSpec(points=(0j, 0.2 + 0.1j))
    a = harmonic_density_curve(seq, [0.9], "lower", spec, _mc(seed=9))
    b = harmonic_density_curve(seq, [0.9], "lower", spec, _mc(seed=9))
    assert a.curve == b.curve
    assert all(pa.value == pb.value for pa, pb in zip(a.per_r[0], b.per_r[0]))


def test_upper_at_least_lower_with_shared_probes():
    seq = ch.generate_ring_lattice(0.5, 1.5, 6, seed=4)
    spec = ProbeSpec(max_probes=6)
    lo = harmonic_density_curve(seq, [0.92], "lower", spec, _mc(seed=10))
    up = harmonic_density_curve(seq, [0.92], "upper", spec, _mc(seed=10))
    # one spec resolves one probe set for both modes: inf <= sup
    assert [p.probe for p in lo.per_r[0]] == [p.probe for p in up.per_r[0]]
    assert lo.curve[0] <= up.curve[0]


def _probes(detail):
    return [[p.probe for p in results] for results in detail.per_r]


def test_theorem2_lower_never_above_upper():
    # the 12-ring lattice of the benchmark: every curve's infimum and
    # supremum range over the same probes, so lower <= upper at every r
    seq = ch.generate_ring_lattice(0.5, 2, 12, seed=20)
    rep = theorem2_report(seq, [1 - 2.0 ** -6, 1 - 2.0 ** -8], ProbeSpec(max_probes=8),
                          McParams(n_walks=2000, seed=20, pilot_walks=500, walk_cap=100_000))
    for i in range(2):
        assert rep.uniform_lower[i] <= rep.uniform_upper[i]
        assert rep.harmonic_lower[i] <= rep.harmonic_upper[i]
    assert _probes(rep.lower_detail) == _probes(rep.upper_detail)
    assert all(len(probes) == 8 for probes in _probes(rep.lower_detail))


def test_explicit_probes_drive_both_curves():
    seq = ch.generate_ring_lattice(0.5, 2, 8, seed=6)
    points = (0j, 0.15 + 0.1j, -0.3 + 0.2j)
    r_values = [1 - 2.0 ** -3, 1 - 2.0 ** -4]
    rep = theorem2_report(seq, r_values, ProbeSpec(points=points, max_probes=2),
                          _mc(n=2000, seed=13))
    for detail in (rep.lower_detail, rep.upper_detail):
        assert _probes(detail) == [list(points)] * 2
    ud = ch.uniform_density(seq, r_values, mode="both", probe_points=np.asarray(points))
    assert (rep.uniform_lower, rep.uniform_upper) == (ud.lower_curve, ud.upper_curve)


def test_rejects_bad_inputs():
    seq = ch.PointSequence(np.array([0.5 + 0j]))
    with pytest.raises(ValidationError):
        harmonic_density_curve(seq, [0.3], "lower")  # r <= 1/2
    with pytest.raises(ValidationError):
        harmonic_density_curve(seq, [0.9], "sideways")


def test_theorem2_report_structure():
    seq = ch.generate_ring_lattice(0.5, 2, 8, seed=6)
    rep = theorem2_report(seq, [1 - 2.0 ** -3, 1 - 2.0 ** -4],
                          ProbeSpec(points=(0j, 0.15 + 0.1j), max_probes=4),
                          _mc(n=4000, seed=11))
    assert len(rep.r_values) == 2
    for i in range(2):
        assert rep.uniform_lower[i] <= rep.uniform_upper[i] + 1e-12
        if rep.ratio_lower[i] is not None:
            assert rep.ratio_lower[i] > 0
    assert rep.trend["uniform_lower"] in ("increasing", "decreasing", "mixed", "flat")


def test_theorem2_degenerate_sequence_flagged_low_confidence():
    # a single sparse ring: densities near zero
    pts = 0.7 * np.exp(2j * np.pi * np.arange(4) / 4)
    seq = ch.PointSequence(pts)
    rep = theorem2_report(seq, [0.9], ProbeSpec(points=(0j,), max_probes=2), _mc(seed=12))
    assert rep.low_confidence


def test_probe_domain_matches_direct_measure():
    # the probe estimate is the exterior measure at z of the finitely
    # connected domain itself; transporting z to 0 must not change it
    seq = ch.generate_ring_lattice(0.5, 2, 8, seed=20)
    z, r = -0.718 - 0.115j, 1 - 2.0 ** -4
    curve = harmonic_density_curve(seq, [r], "lower", ProbeSpec(points=(z,)),
                                   McParams(n_walks=4000, seed=3))
    probe = curve.per_r[0][0].estimate
    direct = ch.estimate_measure(ch.build_finitely_connected(seq, z, r), z, n_walks=20_000)
    assert abs(probe.estimate - direct.estimate) <= 4 * math.hypot(probe.sigma, direct.sigma)


@pytest.mark.parametrize("z, r", [(-0.718 - 0.115j, 1 - 2.0 ** -4), (0.3 + 0.2j, 1 - 2.0 ** -6),
                                  (0j, 0.95)])
def test_probe_domain_components_are_the_normalized_annular_log_sum(z, r):
    # with delta = 1 - r, each bubble's one-hole measure is
    # log(1/rho)/log(1/(1-r)): the probe domain's sandwich components sum to
    # the annular sum over 1/2 < rho < r normalized by log(1/(1-r))
    seq = ch.generate_ring_lattice(0.5, 2, 8, seed=20)
    got = math.fsum(ch.sandwich_bounds(ch.build_finitely_connected(seq, z, r), z).components)
    rho = pseudo_distance_many(z, seq.points)
    rho = rho[(rho > 0.5) & (rho < r)]
    want = math.fsum(np.log(1.0 / rho) / math.log(1.0 / (1.0 - r)))
    assert rho.size > 0
    assert got == pytest.approx(want, rel=1e-12)


def test_theorem2_is_the_same_over_worker_processes(small_lattice):
    # probe estimates run on worker threads are byte-identical to serial ones
    spec = ProbeSpec(max_probes=5)
    reps = [theorem2_report(small_lattice, [1 - 2.0 ** -3, 1 - 2.0 ** -4], spec,
                            McParams(n_walks=1000, seed=3, pilot_walks=200, threads=t))
            for t in (1, 2)]
    serial, threaded = ([[p.estimate.canonical_json() if p.estimate else None for p in results]
                         for results in rep.lower_detail.per_r] for rep in reps)
    assert serial == threaded
    assert sum(e is not None for row in serial for e in row) >= 5
    for name in ("harmonic_lower", "harmonic_upper", "uniform_lower", "uniform_upper"):
        assert getattr(reps[0], name) == getattr(reps[1], name)


def test_theorem2_estimates_on_threads_are_seen_by_the_caller(small_lattice, monkeypatch):
    # worker threads share the caller's module state, so a wrapper of
    # estimate_measure sees every pilot and main estimate of the probes
    seen = []

    def counted(*args, **kwargs):
        est = estimate_measure(*args, **kwargs)
        seen.append((threading.current_thread() is threading.main_thread(),
                     est.canonical_json()))
        return est

    monkeypatch.setattr(harmonic_density, "estimate_measure", counted)
    rep = theorem2_report(small_lattice, [1 - 2.0 ** -3, 1 - 2.0 ** -4], ProbeSpec(max_probes=5),
                          McParams(n_walks=1000, seed=3, pilot_walks=200, threads=2))
    mains = [p.estimate.canonical_json() for results in rep.lower_detail.per_r
             for p in results if p.estimate is not None]
    assert len(mains) >= 5
    assert len(seen) == 2 * len(mains)
    assert not any(on_main for on_main, _ in seen)
    assert set(mains) <= {js for _, js in seen}
