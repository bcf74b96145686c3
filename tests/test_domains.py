import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import champagne as ch
from champagne import domains
from champagne.domains import (
    ChampagneDomain,
    _check_disjoint,
    build_champagne,
    build_finitely_connected,
    criterion_integral,
    criterion_sum,
    criterion_tail_integral,
    parse_profile,
    transport_domain,
)
from champagne.errors import OverlapError, ValidationError
from champagne.hyperbolic import pseudo_to_euclidean_arrays

from conftest import euclidean_domain


# -- profiles ----------------------------------------------------------------

def test_profile_parsing_roundtrip():
    for spec in ("const:0.3", "power:0.1,2", "expinv:1,1"):
        assert parse_profile(spec).describe() == spec
    with pytest.raises(ValidationError):
        parse_profile("power:2,1")      # c >= 1
    with pytest.raises(ValidationError):
        parse_profile("nosuch:1")


def test_profile_monotone_and_bounded():
    t = np.linspace(0.01, 0.99, 200)
    for prof in (ch.const_profile(0.3), ch.power_profile(0.2, 1.5), ch.expinv_profile(1, 1)):
        v = prof.value_at_gap(1 - t)
        assert np.all(v > 0) and np.all(v < 1)
        assert np.all(np.diff(v) <= 1e-15)


def test_table_profile_interpolation():
    prof = ch.table_profile([0.1, 0.5, 0.9], [0.3, 0.2, 0.05])
    assert prof.value_at_gap(1 - 0.5) == pytest.approx(0.2)
    assert prof.value_at_gap(1 - 0.3) == pytest.approx(0.25)
    assert prof.value_at_gap(1 - 0.05) == pytest.approx(0.3)   # clamped left
    assert prof.value_at_gap(1 - 0.99) == pytest.approx(0.05)  # clamped right
    with pytest.raises(ValidationError):
        ch.table_profile([0.1, 0.5], [0.2, 0.3])  # increasing phi


# -- criterion ---------------------------------------------------------------

def test_criterion_closed_forms():
    r = criterion_integral(ch.expinv_profile(1, 1))
    assert r.classification == "convergent"
    assert r.value == pytest.approx(1.0, abs=1e-9)
    r = criterion_integral(ch.expinv_profile(1, 2))
    assert r.value == pytest.approx(0.5, abs=1e-9)
    # general expinv integrates to 1/(c beta)
    r = criterion_integral(ch.expinv_profile(2, 3))
    assert r.value == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_criterion_divergent_families():
    assert criterion_integral(ch.power_profile(0.1, 2)).classification == "divergent"
    assert criterion_integral(ch.const_profile(0.3)).classification == "divergent"
    assert criterion_sum(ch.power_profile(0.1, 2)).classification == "divergent"
    assert criterion_sum(ch.const_profile(0.3)).classification == "divergent"


def test_criterion_sum_geometric():
    r = criterion_sum(ch.expinv_profile(1, 1), K=2.0)
    assert r.classification == "convergent"
    assert r.value == pytest.approx(1.0, abs=1e-9)
    # terms K^(-beta j) sum to 1/(c (K^beta - 1))
    r = criterion_sum(ch.expinv_profile(1, 1), K=4.0)
    assert r.value == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_criterion_sum_edge_cases():
    r = criterion_sum(ch.expinv_profile(1, 1), J_max=0)
    assert r.classification == "inconclusive"
    assert r.partial_sums == ()
    r = criterion_sum(ch.expinv_profile(1, 1), J_max=40)
    assert r.classification == "convergent"  # the closed form holds at any horizon
    assert r.value == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(c=st.floats(0.01, 10.0), beta=st.floats(0.01, 3.0), K=st.sampled_from([2.0, 4.0, 10.0]))
@example(c=1.0, beta=0.01, K=2.0)     # slow decay: once read as divergent
@example(c=1.0, beta=0.01, K=10.0)
@example(c=1.0, beta=0.1, K=2.0)      # once read as convergent without a value
def test_expinv_criterion_is_the_closed_form(c, beta, K):
    prof = ch.expinv_profile(c, beta)
    ri, rs = criterion_integral(prof), criterion_sum(prof, K=K)
    assert (ri.classification, rs.classification) == ("convergent", "convergent")
    assert ri.value == pytest.approx(1.0 / (c * beta), rel=1e-12)
    assert rs.value == pytest.approx(1.0 / (c * math.expm1(beta * math.log(K))), rel=1e-12)


@pytest.mark.parametrize("J_max", [1, 40, 10_000])
def test_criterion_reports_a_value_exactly_when_convergent(J_max):
    t = np.linspace(0.01, 0.99, 50)
    for prof in (ch.const_profile(0.3), ch.power_profile(0.1, 2), ch.expinv_profile(1, 0.01),
                 ch.expinv_profile(1, 0.1), ch.table_profile(t, 0.1 * (1 - t) ** 2)):
        for r in (criterion_integral(prof), criterion_sum(prof, J_max=J_max)):
            assert (r.classification == "convergent") == (r.value is not None)


def _quad(f, edges):
    """The oracle: quad over each piece between consecutive edges."""
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("spec", ["expinv:1,1", "expinv:0.5,1.5", "expinv:2,3", "expinv:1,0.1",
                                  "expinv:1,0.01", "power:0.1,2", "power:0.5,1.2", "const:0.3"])
def test_criterion_blocks_match_quad(spec):
    prof = parse_profile(spec)
    r = criterion_integral(prof)
    knots = (0.0, 1.0, 10.0, 100.0, 1000.0)
    oracle = [_quad(lambda u: prof.criterion_term_at_loggap(-u), (a, b))
              for a, b in zip(knots, knots[1:])]
    np.testing.assert_allclose(r.blocks, oracle[1:], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(r.partial_sums, np.cumsum(oracle), rtol=1e-12, atol=0.0)


def test_criterion_table_blocks_match_quad():
    t = np.linspace(0.01, 0.99, 50)
    cuts = -np.log1p(-t)
    # the steep table's interpolant nearly reaches 0 at its last row
    for phi in (np.exp(-1 / (1 - t)) * 0.99, 0.1 * (1 - t) ** 2):
        prof = ch.table_profile(t, phi)
        r = criterion_integral(prof)
        knots = (0.0, 1.0, 10.0)     # the last row, u = 4.6, lies in the first decade
        oracle = [_quad(lambda u: prof.criterion_term_at_loggap(-u),
                        (a, *cuts[(cuts > a) & (cuts < b)], b))
                  for a, b in zip(knots, knots[1:])]
        np.testing.assert_allclose(r.blocks, oracle[1:], rtol=1e-6, atol=0.0)
        np.testing.assert_allclose(r.partial_sums, np.cumsum(oracle), rtol=1e-6, atol=0.0)


def test_power_blocks_of_a_huge_gamma_are_finite():
    # each block is 1/gamma log1p(...) of about log(10) / 1e308
    r = criterion_integral(ch.power_profile(0.1, 1e308))
    assert np.all(np.isfinite(r.blocks)) and np.all(np.array(r.blocks) > 0.0)
    assert r.blocks[0] == pytest.approx(math.log(10.0) / 1e308, rel=1e-12)


def test_criterion_partial_sums_nondecreasing():
    r = criterion_sum(ch.power_profile(0.1, 2), J_max=500)
    ps = np.asarray(r.partial_sums)
    assert np.all(np.diff(ps) >= 0)


def test_criterion_table_inconclusive():
    t = np.linspace(0.01, 0.99, 50)
    prof = ch.table_profile(t, np.exp(-1 / (1 - t)) * 0.99)
    for report in (criterion_integral(prof), criterion_sum(prof)):
        assert report.classification == "inconclusive"
        # the builders read the table clamped to its last row: a divergent tail
        assert any("clamp the table to its last row" in f for f in report.flags)
    assert criterion_tail_integral(prof, 0.5) == math.inf
    assert criterion_tail_integral(prof, 1.0 - 1e-9) == math.inf


@pytest.mark.parametrize("K", [2.0, 4.0, 10.0])
def test_criterion_forms_agree(K):
    profiles = [
        ch.expinv_profile(1, 1),
        ch.expinv_profile(1, 2),
        ch.expinv_profile(0.5, 1.5),
        ch.power_profile(0.1, 2),
        ch.power_profile(0.5, 1.2),
        ch.const_profile(0.3),
    ]
    for prof in profiles:
        ci = criterion_integral(prof)
        cs = criterion_sum(prof, K=K)
        assert ci.classification == cs.classification
        if ci.classification == "convergent":
            assert ci.value > 0 and cs.value > 0


def test_criterion_monotonicity_in_profile():
    # pointwise-smaller phi has larger log(1/phi): convergence is preserved
    small = ch.expinv_profile(2, 1)
    big = ch.expinv_profile(1, 1)
    t = np.linspace(0.01, 0.99, 50)
    assert np.all(small.value_at_gap(1 - t) <= big.value_at_gap(1 - t))
    assert criterion_integral(big).classification == "convergent"
    assert criterion_integral(small).classification == "convergent"
    assert criterion_integral(small).value <= criterion_integral(big).value


# -- build_champagne ---------------------------------------------------------

def test_build_single_bubble():
    seq = ch.PointSequence(np.array([0.5 + 0j]))
    dom = build_champagne(seq, ch.const_profile(0.25), 1.0)
    center, radius = pseudo_to_euclidean_arrays(0.5 + 0j, 0.25)
    assert dom.n_bubbles == 1
    assert dom.centers[0] == pytest.approx(center, abs=1e-15)
    assert dom.radii[0] == pytest.approx(radius, abs=1e-15)


def test_build_lattice_count_and_disjointness():
    seq = ch.generate_ring_lattice(0.5, 1, 6, seed=0)
    dom = build_champagne(seq, ch.power_profile(0.1, 2), 1 - 2.0 ** -6)
    assert dom.n_bubbles == 126
    # independent pairwise gap oracle
    cx, cy, r = dom.centers.real, dom.centers.imag, dom.radii
    for i in range(dom.n_bubbles):
        d = np.hypot(cx - cx[i], cy - cy[i]) - r - r[i]
        d[i] = np.inf
        assert d.min() > 0
    assert dom.circumference_sum == pytest.approx(2 * np.pi * r.sum())


def test_build_rejects_overlap():
    seq = ch.generate_ring_lattice(0.5, 1, 4, seed=0)
    fat = ch.const_profile(0.9)  # far above separation/2 on every ring
    with pytest.raises(OverlapError) as exc:
        build_champagne(seq, fat, 1.0)
    assert exc.value.index_a != exc.value.index_b


def test_tangent_bubbles_are_rejected():
    # both pseudo disks pass through 0, so their realizations touch there
    with pytest.raises(OverlapError) as exc:
        ch.domain_from_pseudo([(-0.25, 0.25), (0.25, 0.25)], source_index=[4, 9])
    assert (exc.value.index_a, exc.value.index_b, exc.value.gap) == (4, 9, 0.0)


def test_overlap_report_names_the_most_overlapping_pair():
    # indices 0-1 overlap by 0.02, indices 2-3 by 0.05
    dom = euclidean_domain([-0.5, -0.68, 0.5j, 0.65j], [0.1] * 4, [31, 17, 8, 23])
    with pytest.raises(OverlapError) as exc:
        _check_disjoint(dom)
    assert (exc.value.index_a, exc.value.index_b) == (8, 23)
    assert exc.value.gap == pytest.approx(-0.05)


def test_build_rejects_covered_start():
    seq = ch.PointSequence(np.array([0.1 + 0j]))
    with pytest.raises(ValidationError):
        build_champagne(seq, ch.const_profile(0.3), 1.0)  # bubble swallows 0


def test_one_point_checks_build_no_walk_grid():
    # build_champagne, sandwich_bounds and barrier_lower_bound each check
    # one start point; the walk grid is built when a walk needs it
    seq = ch.generate_ring_lattice(0.5, 2, 6, seed=8)
    dom = build_champagne(seq, ch.power_profile(0.1, 2), 1 - 2.0 ** -6)
    ch.sandwich_bounds(dom)
    assert dom._index is None
    fc = build_finitely_connected(seq, 0j, 1 - 2.0 ** -6)
    ch.barrier_lower_bound(fc, eta=0.5)
    assert fc._index is None
    ch.estimate_measure(dom, 0j, n_walks=10, seed=1)
    assert dom._index is not None


def test_build_order_invariance():
    seq = ch.generate_ring_lattice(0.5, 1, 5, seed=3)
    perm = np.random.default_rng(1).permutation(len(seq))
    shuffled = ch.PointSequence(seq.points[perm])
    a = build_champagne(seq, ch.power_profile(0.1, 2), 1.0)
    b = build_champagne(shuffled, ch.power_profile(0.1, 2), 1.0)
    sa = sorted((round(c.real, 14), round(c.imag, 14), round(r, 14))
                for c, r in zip(a.centers, a.radii))
    sb = sorted((round(c.real, 14), round(c.imag, 14), round(r, 14))
                for c, r in zip(b.centers, b.radii))
    assert sa == sb


def test_criterion_tail_integral():
    # expinv tail: integral of e^-u from u0 = log(1/(1-R))
    R = 0.9375
    got = criterion_tail_integral(ch.expinv_profile(1, 1), R)
    assert got == pytest.approx(1.0 - R, rel=1e-8)
    # every other kind diverges; a table is constant beyond its last row
    t = np.linspace(0.01, 0.99, 50)
    table = ch.table_profile(t, np.exp(-1 / (1 - t)) * 0.99)
    for prof in (ch.const_profile(0.3), ch.power_profile(0.1, 2), table):
        for R in (0.5, 0.95, 1 - 2.0 ** -20):
            assert criterion_tail_integral(prof, R) == math.inf
    with pytest.raises(ValidationError):
        criterion_tail_integral(ch.expinv_profile(1, 1), 1.0)


@pytest.mark.parametrize("R", [1 - 2.0 ** -4, 1 - 2.0 ** -8])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
def test_criterion_tail_closed_form_matches_quad(c, beta, R):
    prof = ch.expinv_profile(c, beta)
    # the criterion integrand 1/log(1/phi(1 - e^-u)), integrated numerically
    # from u0 = log(1/(1-R)) in the profile's log-space evaluation
    u0 = math.log(1.0 / (1.0 - R))
    oracle, _ = quad(lambda u: prof.criterion_term_at_loggap(-u), u0, math.inf,
                     epsabs=0.0, epsrel=1e-13, limit=200)
    got = criterion_tail_integral(prof, R)
    assert got == pytest.approx((1.0 - R) ** beta / (c * beta), rel=1e-15)
    assert got == pytest.approx(oracle, rel=1e-9)


def test_build_runs_no_numerical_integration(monkeypatch):
    # the tail a build records is closed form; the Gauss rule serves only
    # the criterion report
    def refuse(*args, **kwargs):
        raise AssertionError("domain build integrated numerically")

    monkeypatch.setattr(domains, "_block_integrals", refuse)
    seq = ch.generate_ring_lattice(0.5, 1, 4, seed=0)
    t = np.linspace(0.01, 0.99, 50)
    R = 1 - 2.0 ** -3
    for prof in (ch.const_profile(0.05), ch.power_profile(0.1, 2), ch.expinv_profile(1, 1),
                 ch.table_profile(t, 0.1 * (1 - t) ** 2)):
        dom = build_champagne(seq, prof, R)
        assert dom.n_bubbles == 14
        assert dom.meta["tail_integral_from_R"] == criterion_tail_integral(prof, R)


def test_expinv_domain_records_the_closed_form_tail():
    seq = ch.generate_ring_lattice(0.5, 1, 6, seed=0)
    R = 1 - 2.0 ** -5
    dom = build_champagne(seq, ch.expinv_profile(2.0, 0.5), R)
    assert dom.meta["tail_integral_from_R"] == (1.0 - R) ** 0.5 / (2.0 * 0.5)
    assert build_champagne(seq, ch.expinv_profile(1, 1), 1.0).meta["tail_integral_from_R"] == 0.0


def test_tail_sum_and_circumference_decay():
    seq = ch.generate_ring_lattice(0.5, 1, 8, seed=0)
    prof = ch.power_profile(0.1, 2)
    doms = [build_champagne(seq, prof, 1 - 2.0 ** -d) for d in (4, 6, 8)]
    tails = [d.tail_sum_points for d in doms]
    assert tails[0] > tails[1] > tails[2] >= 0.0
    # circumference partial sums stay bounded across depth for gamma = 2
    circs = [d.circumference_sum for d in doms]
    assert circs[2] - circs[1] < circs[1] - circs[0]
    assert circs[2] < 1.0


# -- finitely connected ------------------------------------------------------

def test_finitely_connected_counts_by_scan():
    seq = ch.generate_ring_lattice(0.5, 1, 8, seed=0)
    r = 1 - 2.0 ** -6
    dom = build_finitely_connected(seq, 0j, r, "one-minus-r")
    rho = np.abs(seq.points)  # probe at 0
    expected = int(np.sum((rho > 0.5 + 1e-12) & (rho < r - 1e-12)))
    assert dom.n_bubbles == expected
    assert np.allclose(dom.pseudo_radii, 1 - r)


def test_finitely_connected_excludes_center_point():
    seq = ch.PointSequence(np.array([0.3 + 0j, 0.8 + 0j]))
    dom = build_finitely_connected(seq, 0.3 + 0j, 0.9, 0.05)
    assert 0 not in dom.source_index  # rho = 0 <= 1/2 for the probe itself


def test_finitely_connected_empty_annulus():
    seq = ch.PointSequence(np.array([0.2 + 0j]))
    dom = build_finitely_connected(seq, 0j, 0.9, "one-minus-r")
    assert dom.n_bubbles == 0


def test_finitely_connected_delta_is_a_number_or_one_minus_r():
    seq = ch.generate_ring_lattice(0.5, 1, 6, seed=0)
    r = 1 - 2.0 ** -5
    assert build_finitely_connected(seq, 0j, r) == build_finitely_connected(seq, 0j, r, 1 - r)
    for rule in ("1-r", "nosuch"):
        with pytest.raises(ValidationError, match="unknown delta rule"):
            build_finitely_connected(seq, 0j, r, rule)


def test_finitely_connected_overlap_reports_admissible_r():
    pts = 0.8 * np.exp(2j * np.pi * np.arange(40) / 40)  # tightly packed ring
    seq = ch.PointSequence(pts)
    with pytest.raises(OverlapError) as exc:
        build_finitely_connected(seq, 0j, 0.9, 0.45)
    assert "admissible for r >=" in str(exc.value)


# -- serialization and transport ----------------------------------------------

def test_domain_json_roundtrip(tmp_path):
    seq = ch.generate_ring_lattice(0.5, 1, 5, seed=3)
    power = build_champagne(seq, ch.power_profile(0.1, 2), 1 - 2.0 ** -5)
    assert power.meta["tail_integral_from_R"] == math.inf
    doms = [power, build_finitely_connected(seq, 0.1j, 1 - 2.0 ** -4),
            transport_domain(power, 0.3 - 0.2j),
            ch.domain_from_pseudo([(0.5 + 0j, 0.2), (-0.3 + 0.4j, 0.15)], meta={"r": 0.9})]
    path = tmp_path / "dom.json"
    for dom in doms:
        assert dom.n_bubbles > 0
        dom.save(path)
        back = ChampagneDomain.load(path)
        assert back == dom
        for name in ("centers", "radii", "pseudo_centers", "pseudo_radii", "source_index"):
            assert getattr(back, name).dtype == getattr(dom, name).dtype, name


def test_domains_compare_by_pseudo_disks_and_record():
    dom = ch.domain_from_pseudo([(0.5 + 0j, 0.2), (-0.5 + 0j, 0.2)])
    assert dom == ch.domain_from_pseudo([(0.5 + 0j, 0.2), (-0.5 + 0j, 0.2)])
    assert dom != ch.domain_from_pseudo([(0.5 + 0j, 0.2), (-0.5 + 0j, 0.25)])


def test_meta_strings_and_non_finite_floats_roundtrip(tmp_path):
    meta = {"sequence": "inf", "tail": math.inf, "low": -math.inf}
    dom = ch.domain_from_pseudo([(0.5 + 0j, 0.2)], meta=meta)
    path = tmp_path / "dom.json"
    dom.save(path)
    back = ChampagneDomain.load(path)
    assert back == dom
    assert back.meta == meta and isinstance(back.meta["sequence"], str)


@pytest.mark.parametrize("value", [{"float": "inf"}, {"float": "nan"}, {"float": 1.5}])
def test_a_meta_value_spelled_like_a_float_is_refused(tmp_path, value):
    # load would read {"float": "inf"} back as the float inf
    dom = ch.domain_from_pseudo([(0.5 + 0j, 0.2)], meta={"r": 0.9, "x": value})
    path = tmp_path / "dom.json"
    for write in (dom.to_json, lambda: dom.save(path)):
        with pytest.raises(ValidationError, match=r"meta\['x'\]"):
            write()
    assert not path.exists()


def test_domain_file_keys_are_pinned():
    seq = ch.generate_ring_lattice(0.5, 1, 5, seed=3)
    dom = build_champagne(seq, ch.power_profile(0.1, 2), 1 - 2.0 ** -5)

    def refuse(token):
        raise AssertionError(f"{token} is not standard JSON")

    data = json.loads(dom.to_json(), parse_constant=refuse)
    assert sorted(data) == ["meta", "profile_spec", "pseudo_cx", "pseudo_cy", "pseudo_radius",
                            "source_index", "tail_sum_points", "truncation_R"]
    assert data["meta"]["tail_integral_from_R"] == {"float": "inf"}


def test_estimate_on_loaded_floor_domain_matches_built(tmp_path):
    seq = ch.generate_ring_lattice(0.5, 5, 10, seed=1)
    dom = build_champagne(seq, ch.power_profile(0.05, 2), 1 - 2.0 ** -10)
    path = tmp_path / "big.json"
    dom.save(path)
    back = ChampagneDomain.load(path)
    built, loaded = (ch.estimate_measure(d, 0j, n_walks=500, seed=3, threads=1)
                     for d in (dom, back))
    assert loaded.canonical_json() == built.canonical_json()


def test_transport_preserves_pseudo_radii_and_distances():
    dom = ch.domain_from_pseudo([(0.5 + 0j, 0.2), (-0.3 + 0.4j, 0.15)])
    a = 0.35 - 0.2j
    moved = transport_domain(dom, a)
    assert np.allclose(moved.pseudo_radii, dom.pseudo_radii)
    d0 = ch.pseudo_distance(dom.pseudo_centers[0], dom.pseudo_centers[1])
    d1 = ch.pseudo_distance(moved.pseudo_centers[0], moved.pseudo_centers[1])
    assert d1 == pytest.approx(d0, abs=1e-12)
