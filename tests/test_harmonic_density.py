import math

import numpy as np
import pytest

import champagne as ch
from champagne.errors import ValidationError
from champagne.harmonic_density import (
    McParams,
    ProbeSpec,
    harmonic_density_curve,
    theorem2_report,
)


def _mc(n=4000, seed=0, cap=100_000):
    return McParams(n_walks=n, seed=seed, pilot_walks=500, walk_cap=cap)


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


def test_upper_mode_probes_sequence_points():
    seq = ch.generate_ring_lattice(0.5, 1, 5, seed=3)
    spec = ProbeSpec(max_probes=4)
    curve = harmonic_density_curve(seq, [0.9], "upper", spec, _mc())
    assert len(curve.per_r[0]) == 4
    probed = {p.probe for p in curve.per_r[0]}
    assert probed.issubset(set(seq.points.tolist()))


def test_upper_at_least_lower_with_shared_probes():
    seq = ch.generate_ring_lattice(0.5, 1.5, 6, seed=4)
    lower_spec = ProbeSpec(points=tuple(seq.points[:6].tolist()) + (0j,))
    lo = harmonic_density_curve(seq, [0.92], "lower", lower_spec, _mc(seed=10))
    up_spec = ProbeSpec(max_probes=6)
    up = harmonic_density_curve(seq, [0.92], "upper", up_spec, _mc(seed=10))
    # the lower probe set contains the upper probes: inf <= sup
    assert lo.curve[0] <= up.curve[0] + 1e-12


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
