"""Blaschke products, shell weights and the barrier certificates.

The compiled charge matrix (barriers._charge_matrix) is checked
against the array sum it replaced (blaschke_sum.py): on the boundary
samples of random ring-lattice domains to 1e-12 of each row's largest
entry, with certificates that agree to 1e-9, and to 1e-12 relative on a
sample on a zero, a group whose product underflows a double and a sample
1e-200 from a zero.  The shell weights (barriers._shell_weights) are
checked against scipy.optimize.linprog.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import champagne as ch
from champagne import barriers, walker
from champagne.barriers import (
    _charge_matrix,
    _shell_weights,
    barrier_lower_bound,
    shell_of_modulus,
)
from champagne.errors import ChampagneError, NumericalRefusalError, ValidationError
from champagne.hyperbolic import pseudo_distance_many

from blaschke_sum import array_charge_matrix


# -- shells -----------------------------------------------------------------------

def test_shells_single_and_all_in_one():
    seq = ch.PointSequence(np.array([0j, 0.1 + 0j, 0.2j]))
    assert np.array_equal(shell_of_modulus(np.abs(seq.points), 0.5), [1, 1, 1])


def test_shells_match_lattice_rings():
    seq = ch.generate_ring_lattice(0.4, 1, 5, seed=2)
    shells = shell_of_modulus(np.abs(seq.points), 0.4)
    for j in range(1, 6):
        assert np.array_equal(np.sort_complex(seq.points[shells == j]),
                              np.sort_complex(seq.points[seq.ring_index == j]))


def test_shell_indices_snap_at_boundaries():
    eta = 0.5
    assert shell_of_modulus(0.0, eta) == 1
    assert shell_of_modulus(0.5, eta) == 1          # right-closed shell 1
    assert shell_of_modulus(0.5 + 1e-16, eta) == 1  # ulp noise snaps back
    assert shell_of_modulus(0.75, eta) == 2
    assert shell_of_modulus(0.6, eta) == 2


# -- weights ----------------------------------------------------------------------

def test_weights_worked_example():
    # min 3 w1 + 2 w2 s.t. 2 w1 + w2 >= 1, w1 + 2 w2 >= 1: the optimum is
    # the corner w = (1/3, 1/3), where c.w = 5/3
    M = np.array([[2.0, 1.0], [1.0, 2.0], [3.0, 2.0]])
    np.testing.assert_allclose(_shell_weights(M), [1 / 3, 1 / 3], rtol=1e-15)


def test_weights_single_layer():
    # one shell: the weight is 1 / the least sample potential
    M = np.array([[2.5], [4.0], [3.0], [0.7]])
    assert _shell_weights(M) == pytest.approx([0.4], rel=1e-15)


def test_weights_refuse_a_sample_no_shell_reaches():
    # the second sample has no potential from any shell: no weights lift it to 1
    M = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(NumericalRefusalError):
        _shell_weights(M)


def _weights_and_matrix(dom, **kwargs):
    """(certificate, the potential matrix, the solver's weights) of one barrier."""
    seen = []

    def spy(M):
        seen.append((M, _shell_weights(M)))
        return seen[-1][1]

    with mock.patch.object(barriers, "_shell_weights", spy):
        cert = barrier_lower_bound(dom, **kwargs)
    return (cert, *seen[0])


def _linprog_optimum(M):
    """HiGHS's optimum of the weights' program.  Its default feasibility
    tolerance, 1e-7, lets it undercut the optimum by 2e-9 relative on the
    42-bubble case below, so both tolerances are tightened."""
    res = linprog(M[-1], A_ub=-M[:-1], b_ub=-np.ones(len(M) - 1), bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("q, scale, depth, log_gap, eta, start", [
    (0.5, 2.0, 12, 8, 0.5, 0j),
    (0.5, 1.5, 7, 5, 0.5, 0j),
    (0.45, 1.0, 6, 4, 0.3, 0j),
    (0.55, 2.0, 7, 5, 0.9, 0j),
    (0.5, 1.5, 6, 4, 0.5, 0.2 + 0.1j),
])
def test_weights_are_the_linear_program_optimum(q, scale, depth, log_gap, eta, start):
    seq = ch.generate_ring_lattice(q, scale, depth, seed=31)
    dom = ch.build_finitely_connected(seq, start, 1 - 2.0 ** -log_gap, "one-minus-r")
    cert, M, w = _weights_and_matrix(dom, eta=eta, start=start)
    assert np.all(w >= 0.0) and np.all(M[:-1] @ w >= 1.0 - 1e-12)
    assert M[-1] @ w == pytest.approx(_linprog_optimum(M), rel=1e-9)
    # the certificate rescales by at most the solver's rounding
    assert cert.rescale_factor == pytest.approx(1.0, abs=1e-12)
    assert cert.barrier_at_start == pytest.approx(M[-1] @ w, rel=1e-12)


def test_empty_shells_are_no_columns_of_the_program():
    # the barrier domain of the benchmark: at eta 0.97 the bubble centers
    # fall in 6 of 160 shells, and a finer partition with no new occupied
    # shell cannot change the bound
    seq = ch.generate_ring_lattice(0.5, 2, 12, seed=20)
    dom = ch.build_finitely_connected(seq, 0j, r=1 - 2.0 ** -8)
    coarse = barrier_lower_bound(dom, eta=0.5)
    cert, M, w = _weights_and_matrix(dom, eta=0.97)
    occupied = np.unique(shell_of_modulus(np.abs(dom.pseudo_centers), 0.97))
    assert M.shape[1] == occupied.size == 6 and occupied[-1] == 160
    # the certificate reports the occupied shells alone, with their weights
    assert cert.shells == tuple(occupied.tolist())
    assert np.array_equal(cert.weights, np.maximum(w, 0.0) * cert.rescale_factor)
    assert cert.exterior_lower == pytest.approx(coarse.exterior_lower, rel=1e-12, abs=0.0)


# -- barrier certificates ------------------------------------------------------------

def test_barrier_one_layer_equals_one_hole():
    lam, delta = 0.6 + 0j, 0.1
    dom = ch.domain_from_pseudo([(lam, delta)], meta={"r": 0.9})
    cert = barrier_lower_bound(dom, eta=0.3)
    exact = 1 - ch.one_hole_exact(lam, delta)
    assert cert.shells == (1,) and len(cert.weights) == 1
    assert cert.exterior_lower == pytest.approx(exact, abs=1e-12)
    assert cert.rescale_factor == pytest.approx(1.0, abs=1e-12)


def test_barrier_names_a_start_too_close_to_the_rim():
    # |start| < 1 passes the interior check, but not the margin that
    # transporting the domain to the start needs
    dom = ch.domain_from_pseudo([(0.5 + 0j, 0.25)])
    with pytest.raises(ValidationError, match="start="):
        barrier_lower_bound(dom, start=1 - 5e-13)


def test_barrier_empty_domain(empty_domain):
    cert = barrier_lower_bound(empty_domain)
    assert cert.exterior_lower == 1.0


def test_barrier_below_monte_carlo():
    seq = ch.generate_ring_lattice(0.5, 1.5, 7, seed=71)
    dom = ch.build_finitely_connected(seq, 0j, 1 - 2.0 ** -5, "one-minus-r")
    cert = barrier_lower_bound(dom, eta=0.5)
    est = ch.estimate_measure(dom, 0j, n_walks=20_000, seed=72)
    assert cert.exterior_lower <= est.estimate + 3 * est.sigma
    assert all(v >= 1.0 - 1e-9 for v in cert.per_bubble_min)


def test_barrier_off_center_start():
    seq = ch.generate_ring_lattice(0.5, 1.5, 6, seed=73)
    z = 0.2 + 0.1j
    dom = ch.build_finitely_connected(seq, z, 1 - 2.0 ** -4, "one-minus-r")
    cert = barrier_lower_bound(dom, eta=0.5, start=z)
    est = ch.estimate_measure(dom, z, n_walks=20_000, seed=74)
    assert cert.exterior_lower <= est.estimate + 3 * est.sigma


def test_barrier_of_mixed_radii_stays_below_monte_carlo():
    # the lattice bubbles of the test above, every other one a quarter as wide
    seq = ch.generate_ring_lattice(0.5, 1.5, 7, seed=71)
    pts = seq.points[np.abs(seq.points) <= 1 - 2.0 ** -5]
    dom = ch.domain_from_pseudo([(p, 2.0 ** -5 * (0.25, 1.0)[k % 2]) for k, p in enumerate(pts)])
    assert np.unique(dom.pseudo_radii).size == 2
    cert = barrier_lower_bound(dom, eta=0.5)
    est = ch.estimate_measure(dom, 0j, n_walks=20_000, seed=72)
    assert 0.0 < cert.exterior_lower <= est.estimate + 3 * est.sigma
    assert all(v >= 1.0 - 1e-9 for v in cert.per_bubble_min)


# -- the compiled charge matrix against the array sum --------------------------------

def _assert_potentials_match(zeros, groups, pts):
    got = _charge_matrix(zeros, groups, pts)
    want = array_charge_matrix(zeros, groups, pts)
    assert got.shape == want.shape == (len(pts), max(groups) + 1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    return got


def _certificate(dom, **kwargs):
    """(certificate, potential inputs and matrices) of one barrier."""
    calls = []

    def spy(*args):
        calls.append((args, _charge_matrix(*args)))
        return calls[-1][1]

    with mock.patch.object(barriers, "_charge_matrix", spy):
        return barrier_lower_bound(dom, **kwargs), calls


@st.composite
def barrier_cases(draw):
    """(domain, barrier arguments) on a random ring lattice."""
    seq = ch.generate_ring_lattice(draw(st.floats(0.3, 0.75)), draw(st.floats(0.5, 3.0)),
                                   draw(st.integers(1, 6)), seed=draw(st.integers(0, 99)))
    start = draw(st.sampled_from([0j, 0.1 + 0.05j, -0.2j, 0.3 - 0.1j]))
    try:
        dom = ch.build_finitely_connected(seq, start, 1.0 - 2.0 ** -draw(st.floats(1.2, 8.0)))
    except ChampagneError:
        assume(False)
    assume(dom.n_bubbles > 0)
    return dom, dict(eta=draw(st.sampled_from([0.3, 0.5, 0.9])), start=start)


@given(barrier_cases())
@settings(max_examples=150, deadline=None)
def test_barrier_matches_the_array_sum(case):
    dom, kwargs = case
    got, calls = _certificate(dom, **kwargs)
    assert len(calls) == 1
    args, values = calls[0]
    # each entry sums rounding errors of about 1e-16 per zero of its shell,
    # so a far shell's small entry (6e-4) can be 2e-12 off relative to
    # itself: the entries are compared relative to their row's largest
    want = array_charge_matrix(*args)
    assert values.shape == want.shape
    assert np.all(np.abs(values - want) <= 1e-12 * want.max(axis=1, keepdims=True))
    with mock.patch.object(barriers, "_charge_matrix", array_charge_matrix):
        want = barrier_lower_bound(dom, **kwargs)
    for field in ("exterior_lower", "barrier_at_start", "rescale_factor",
                  "per_bubble_min", "weights"):
        np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=0.0,
                                   atol=1e-9, err_msg=field)
    assert (got.shells, got.flags) == (want.shells, want.flags)


def test_potential_on_a_zero_is_infinite():
    zeros = np.array([0.3 + 0.2j, -0.5j, 0.6 + 0j])
    pts = np.array([0.6 + 0j, 0.1j, -0.4 + 0.2j])
    got = _assert_potentials_match(zeros, [0, 1, 1], pts)
    assert got[0, 1] == math.inf and np.isfinite(got[0, 0]) and np.all(np.isfinite(got[1:]))


def test_potential_of_a_shell_whose_product_underflows():
    # 600 zeros at moduli 0.05 to 0.5 around the sample 0: the product of
    # rho^2 is about 1e-750, far below the smallest double
    rng = np.random.default_rng(11)
    zeros = rng.uniform(0.05, 0.5, 600) * np.exp(2j * np.pi * rng.uniform(size=600))
    assert np.prod(np.abs(zeros) ** 2) == 0.0
    pts = np.array([0j, 0.02 + 0.01j, 0.7 - 0.3j])
    got = _assert_potentials_match(zeros, np.zeros(600, dtype=np.int64), pts)
    assert got[0, 0] == pytest.approx(-np.log(np.abs(zeros)).sum(), rel=1e-13)


def test_potential_1e_200_from_a_zero():
    # |s - lambda|^2 = 1e-400 underflows; rho itself, about 1.2e-200, does not
    zeros = np.array([0.4j, -0.3 + 0.1j, 0.5 + 0.5j])
    pts = np.array([1e-200 + 0.4j, 0.4j + 1e-140, 0.2 + 0j])
    got = _assert_potentials_match(zeros, [0, 0, 1], pts)
    assert got[0, 0] > 400.0 and np.all(np.isfinite(got))



# -- the bounds as weights over the charge matrix ------------------------------------

@pytest.mark.parametrize("lam, s", [(0.5 + 0j, 0.25), (0.3 + 0.4j, 0.05), (-0.9j, 0.5),
                                    (0.99 + 0j, 0.08), (0.1 + 0j, 0.05)])
def test_every_bound_of_one_bubble_is_its_one_hole_measure(lam, s):
    dom = ch.domain_from_pseudo([(lam, s)])
    exact = 1 - ch.one_hole_exact(lam, s)
    sb = ch.sandwich_bounds(dom, 0j)
    cert = barrier_lower_bound(dom, start=0j)
    for bound in (sb.lower_union, sb.upper_single, cert.exterior_lower):
        assert bound == pytest.approx(exact, rel=0.0, abs=1e-15)


def _sandwich_cases():
    """The six ladder rungs, the 12-ring finitely connected domain and the
    10,230-bubble floor domain of the benchmark, at seed 20."""
    seq = ch.generate_ring_lattice(0.5, 2, 8, seed=20)
    doms = [ch.build_champagne(seq, ch.parse_profile(spec), 1 - 2.0 ** -k)
            for spec in ("expinv:1,1", "power:0.1,2") for k in (4, 6, 8)]
    doms.append(ch.build_finitely_connected(ch.generate_ring_lattice(0.5, 2, 12, seed=20), 0j,
                                            r=1 - 2.0 ** -8))
    doms.append(ch.build_champagne(ch.generate_ring_lattice(0.5, 5, 10, seed=20),
                                   ch.power_profile(0.05, 2), 1 - 2.0 ** -10))
    return [(dom, z0) for dom in doms for z0 in (0j, 0.2 + 0.1j)]


def test_sandwich_bounds_match_the_array_potential_they_replaced():
    # the sandwich once took log rho from pseudo_distance_many; the charge
    # matrix rounds once fewer, so a component moves by a fraction of an ulp
    # and the bounds are the same doubles
    for dom, z0 in _sandwich_cases():
        terms = np.log(pseudo_distance_many(z0, dom.pseudo_centers)) / np.log(dom.pseudo_radii)
        sb = ch.sandwich_bounds(dom, z0)
        assert np.abs(np.array(sb.components) - terms).max() <= 2.0 ** -52
        assert sb.lower_union == max(0.0, 1.0 - float(terms.sum()))
        assert sb.upper_single == 1.0 - float(terms.max())


def test_both_bounds_read_the_charge_matrix_once():
    seq = ch.generate_ring_lattice(0.5, 2, 6, seed=3)
    dom = ch.build_finitely_connected(seq, 0j, 1 - 2.0 ** -5)
    calls = []

    def spy(*args):
        calls.append(args)
        return _charge_matrix(*args)

    for module, bound in ((walker, ch.sandwich_bounds), (barriers, barrier_lower_bound)):
        calls.clear()
        with mock.patch.object(module, "_charge_matrix", spy):
            bound(dom)
        assert len(calls) == 1, bound.__name__
