import math

import numpy as np
import pytest

import champagne as ch
from champagne.errors import ValidationError
from champagne.hyperbolic import mobius_apply_many, pseudo_distance_many
from champagne.sequences import (
    PointSequence,
    blaschke_sum,
    covering_radius,
    diagnose,
    generate_ring_lattice,
    load_sequence,
    save_sequence,
    separation,
    uniform_density,
)

from conftest import rand_disk_points


# -- generation -------------------------------------------------------------

def test_ring_lattice_counts():
    assert len(generate_ring_lattice(0.5, 1, 1)) == 2
    assert len(generate_ring_lattice(0.5, 1, 3)) == 2 + 4 + 8


def test_ring_lattice_moduli():
    seq = generate_ring_lattice(0.5, 2, 4, seed=5)
    for j in range(1, 5):
        mods = np.abs(seq.points[seq.ring_index == j])
        assert np.allclose(mods, 1 - 0.5 ** j, atol=1e-14)


def test_a_ring_lattice_refuses_a_deep_ring_before_it_builds_any(monkeypatch):
    # ring 40 of q = 0.5 lies within BOUNDARY_MARGIN of the circle, so depth
    # 45 is refused before any ring's phase is drawn
    calls = []
    real = ch.sequences.derive_seed
    monkeypatch.setattr(ch.sequences, "derive_seed", lambda *a: calls.append(a) or real(*a))
    with pytest.raises(ValidationError, match="ring 45 is too close to the unit circle"):
        generate_ring_lattice(0.5, 1e-12, 45)
    assert calls == []
    for scale in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValidationError, match="scale must be positive and finite"):
            generate_ring_lattice(0.5, scale, 3)
    # more points than a grid index lists; 1e308 makes the count inf in
    # floating point
    for scale, depth in ((1e300, 3), (1e308, 3), (2.0 ** 30, 1), (1.0, 31)):
        with pytest.raises(ValidationError, match="more than the 2147483647 a grid index"):
            generate_ring_lattice(0.5, scale, depth)
    assert calls == []


def test_sequence_validation():
    with pytest.raises(ValidationError):
        PointSequence(np.array([0.2 + 0j, 0.2 + 0j]))   # duplicates rejected
    with pytest.raises(ValidationError):
        PointSequence(np.array([1.0 + 0j]))


# -- separation -------------------------------------------------------------

def test_separation_examples():
    assert separation(PointSequence(np.array([0j, 0.5 + 0j]))) == pytest.approx(0.5)
    assert separation(PointSequence(np.array([0.5 + 0j, -0.5 + 0j]))) == pytest.approx(0.8)
    assert separation(PointSequence(np.array([0.3 + 0.3j]))) == 1.0
    assert diagnose(PointSequence(np.array([0.3 + 0.3j]))).separation_vacuous


def test_separation_matches_brute_force_scan():
    seq = generate_ring_lattice(0.5, 1, 8, seed=2)
    i, j = np.triu_indices(len(seq), k=1)
    assert separation(seq) == float(pseudo_distance_many(seq.points[i], seq.points[j]).min())


def test_twelve_ring_lattice_geometry_is_pinned():
    seq = generate_ring_lattice(0.5, 2, 12, seed=20)   # 16,380 points
    assert separation(seq) == 0.3334431374080002
    assert covering_radius(seq, 0.9) == 0.5


# -- Blaschke sums ----------------------------------------------------------

def test_blaschke_single_point_at_origin():
    rep = blaschke_sum(PointSequence(np.array([0j, 0.5 + 0j])))
    assert rep.value == pytest.approx(1.5)


def test_blaschke_geometric_single_point_rings():
    n = 10
    pts = np.array([1 - 2.0 ** -j for j in range(1, n + 1)], dtype=complex)
    rep = blaschke_sum(PointSequence(pts))
    assert rep.value == pytest.approx(1 - 2.0 ** -n, abs=1e-12)
    assert not rep.classified_divergent


def test_blaschke_lattice_partials_grow_linearly():
    # each ring contributes N_j * 2^-j >= 1, so partials grow at least like
    # depth; at scale 3 eight rings sum to 24, past the divergence threshold
    seq = generate_ring_lattice(0.5, 3, 8, seed=0)
    rep = blaschke_sum(seq)
    partials = [v for _, v in rep.partial_by_depth]
    for depth, value in rep.partial_by_depth:
        assert value >= depth - 1e-9
    assert partials == sorted(partials)
    assert rep.classified_divergent


# -- covering radius --------------------------------------------------------

def test_covering_radius_single_point():
    seq = PointSequence(np.array([0j]))
    assert covering_radius(seq, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_covering_radius_monotone_under_extra_point():
    seq = generate_ring_lattice(0.5, 1, 4, seed=1)
    bigger = PointSequence(np.concatenate([seq.points, [0.1 + 0.1j]]))
    probes = np.asarray(rand_disk_points(np.random.default_rng(3), 200, 0.8))
    a = covering_radius(seq, 0.8, probe_points=probes)
    b = covering_radius(bigger, 0.8, probe_points=probes)
    assert b <= a + 1e-15


def test_covering_radius_lattice_certifies_density():
    seq = generate_ring_lattice(0.5, 4, 6, seed=9)
    value = covering_radius(seq, 1 - 2.0 ** -5, grid_density=3.0)
    assert value < 0.8  # uniformly dense with margin on the probed region


# -- uniform density --------------------------------------------------------

def test_density_trivial_cases():
    seq = PointSequence(np.array([0.9 + 0j]))
    est = uniform_density(seq, [0.5], mode="both", probe_points=np.array([0j]))
    assert est.lower_curve[0] == 0.0  # empty annulus
    est2 = uniform_density(seq, [0.99, 0.999999], mode="both", probe_points=np.array([0j]))
    assert est2.upper_curve[1] < est2.upper_curve[0]  # bounded numerator, log blowup


def test_density_refuses_probes_outside_the_open_disk():
    seq = generate_ring_lattice(0.5, 2, 3, seed=1)
    for probes in ([0.0, 1.5], [math.nan], [0.5, complex(0.0, math.inf)], [1.0], [-1.0 + 1e-13]):
        with pytest.raises(ValidationError, match="probe=.* is not inside the open unit disk"):
            uniform_density(seq, [0.9], probe_points=np.array(probes))
    est = uniform_density(seq, [0.9], probe_points=np.array([0.0, 1.0 - 1e-12]))
    assert est.n_probes == 2


def test_an_empty_probe_set_is_refused():
    seq = generate_ring_lattice(0.5, 2, 3, seed=1)
    for probes in ([], np.zeros(0, dtype=complex), ()):
        with pytest.raises(ValidationError, match="the probe set is empty"):
            uniform_density(seq, [0.9], probe_points=probes)
        with pytest.raises(ValidationError, match="the probe set is empty"):
            covering_radius(seq, 0.5, probe_points=probes)


def test_density_against_naive_double_loop():
    seq = generate_ring_lattice(0.5, 2, 6, seed=4)
    probes = np.array([0j, 0.3 + 0.2j, -0.1 - 0.5j])
    r_values = [0.9, 0.96]
    est = uniform_density(seq, r_values, mode="both", probe_points=probes)
    for ri, r in enumerate(r_values):
        vals = []
        for z in probes:
            total = 0.0
            for lam in seq.points:
                rho = abs((z - lam) / (1 - np.conj(lam) * z))
                if rho <= r + 1e-12:
                    total += 1 - rho
            vals.append(total / math.log(1 / (1 - r)))
        assert est.lower_curve[ri] == pytest.approx(min(vals), rel=1e-12)
        assert est.upper_curve[ri] == pytest.approx(max(vals), rel=1e-12)
        assert est.lower_curve[ri] <= est.upper_curve[ri]


def test_density_scale_doubling():
    r = 1 - 2.0 ** -5
    probes = np.array([0j])
    a = uniform_density(ch.generate_ring_lattice(0.5, 2, 7, seed=3), [r], probe_points=probes)
    b = uniform_density(ch.generate_ring_lattice(0.5, 4, 7, seed=3), [r], probe_points=probes)
    ratio = b.lower_curve[0] / a.lower_curve[0]
    assert 1.6 <= ratio <= 2.4


def test_density_mobius_covariance():
    seq = generate_ring_lattice(0.5, 1, 5, seed=8)
    probes = np.asarray(rand_disk_points(np.random.default_rng(5), 40, 0.7))
    a = 0.3 - 0.25j
    moved = PointSequence(mobius_apply_many(a, seq.points))
    moved_probes = np.array([ch.mobius_apply(a, z) for z in probes])
    r_values = [0.8, 0.9]
    est0 = uniform_density(seq, r_values, mode="both", probe_points=probes)
    est1 = uniform_density(moved, r_values, mode="both", probe_points=moved_probes)
    for c0, c1 in zip(est0.lower_curve, est1.lower_curve):
        assert c1 == pytest.approx(c0, abs=1e-10)
    for c0, c1 in zip(est0.upper_curve, est1.upper_curve):
        assert c1 == pytest.approx(c0, abs=1e-10)


def test_density_truncation_flag():
    seq = generate_ring_lattice(0.5, 1, 4, seed=2)  # populated to modulus 0.9375
    est = uniform_density(seq, [0.6, 0.99], probe_points=np.array([0.5 + 0j]))
    assert est.truncation_dominated == (False, True)


def test_density_positive_implies_covering(one_bubble_domain):
    seq = generate_ring_lattice(0.5, 4, 7, seed=6)
    r = 1 - 2.0 ** -5
    est = uniform_density(seq, [r], mode="lower", grid_density=2.0)
    assert est.lower_curve[0] > 0
    assert covering_radius(seq, r, grid_density=2.0) < 1.0


# -- io ----------------------------------------------------------------------

@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_io_roundtrip(tmp_path, suffix):
    seq = generate_ring_lattice(0.4, 1.5, 4, seed=17)
    path = tmp_path / f"seq.{suffix}"
    save_sequence(seq, path)
    back = load_sequence(path)
    assert np.array_equal(back.points, seq.points)


def test_io_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("re,im\n0.5,0\n0.5,0\n")
    with pytest.raises(ValidationError):
        load_sequence(path)


def test_io_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0.5,0\n")
    with pytest.raises(ValidationError):
        load_sequence(path)
