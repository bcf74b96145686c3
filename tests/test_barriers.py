"""Blaschke products, shell weights and the barrier certificates.

The compiled shell potential (barriers._shell_potential) is checked
against the array sum it replaced (blaschke_sum.py) to 1e-12 relative:
on the boundary samples and certificates of random ring-lattice domains,
and on a sample on a zero, a shell whose product underflows a double and
a sample 1e-200 from a zero.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import champagne as ch
from champagne import barriers
from champagne.barriers import (
    _shell_potential,
    annular_partition,
    barrier_lower_bound,
    barrier_weights,
    extremal_c,
    extremal_d,
    log_blaschke,
    shell_of_modulus,
)
from champagne.errors import ChampagneError, NumericalRefusalError, ValidationError

from blaschke_sum import array_shell_potential
from conftest import rand_disk_points


# -- log|B| ---------------------------------------------------------------------

def test_log_blaschke_examples():
    assert log_blaschke([0j], 0.5) == pytest.approx(math.log(0.5), abs=1e-15)
    assert log_blaschke([0.5, -0.5], 0) == pytest.approx(math.log(0.25), abs=1e-15)
    assert log_blaschke([], 0.3 + 0.1j) == 0.0


def test_log_blaschke_vanishes_toward_circle():
    zeros = [0.2 + 0.1j, -0.4 + 0.3j, 0.5j]
    val = log_blaschke(zeros, (1 - 1e-9) * np.exp(0.7j))
    assert -1e-7 < val <= 0.0


def test_log_blaschke_at_zero_is_minus_inf():
    assert log_blaschke([0.3 + 0j, 0.5j], 0.3 + 0j) == -math.inf


def test_log_blaschke_rejects_circle_points():
    with pytest.raises(ValidationError):
        log_blaschke([0.2], 1.0)


def test_log_blaschke_mobius_covariance():
    rng = np.random.default_rng(4)
    zeros = rand_disk_points(rng, 12, 0.85)
    for a, z in zip(rand_disk_points(rng, 20, 0.8), rand_disk_points(rng, 20, 0.8)):
        v0 = log_blaschke(zeros, z)
        moved = np.array([ch.mobius_apply(a, w) for w in zeros])
        v1 = log_blaschke(moved, ch.mobius_apply(a, z))
        assert v1 == pytest.approx(v0, abs=1e-10)


# -- shells -----------------------------------------------------------------------

def test_shells_single_and_all_in_one():
    seq = ch.PointSequence(np.array([0j, 0.1 + 0j, 0.2j]))
    parts = annular_partition(seq, 0.5, 1)
    assert len(parts) == 1 and len(parts[0]) == 3


def test_shells_match_lattice_rings():
    seq = ch.generate_ring_lattice(0.4, 1, 5, seed=2)
    parts = annular_partition(seq, 0.4, 5)
    for j, part in enumerate(parts, start=1):
        want = seq.points[seq.ring_index == j]
        assert np.array_equal(np.sort_complex(part.zeros), np.sort_complex(want))


def test_shell_indices_snap_at_boundaries():
    eta = 0.5
    assert shell_of_modulus(0.0, eta) == 1
    assert shell_of_modulus(0.5, eta) == 1          # right-closed shell 1
    assert shell_of_modulus(0.5 + 1e-16, eta) == 1  # ulp noise snaps back
    assert shell_of_modulus(0.75, eta) == 2
    assert shell_of_modulus(0.6, eta) == 2


# -- weights ----------------------------------------------------------------------

def test_weights_worked_example():
    spec = barrier_weights(2.0, 1.0, 3)
    assert spec.weights == (0.125, 0.25, 0.5)  # (w_1, w_2, w_3)
    assert not spec.ill_conditioned


def test_weights_single_layer():
    assert barrier_weights(2.5, 1.0, 1).weights == (0.4,)


def test_weights_recursion_exact_for_dyadic_a():
    for a, b, n in [(2.0, 1.0, 3), (4.0, 1.0, 5), (8.0, 3.0, 6), (16.0, 5.0, 4), (2.0, 0.5, 8)]:
        res = barrier_weights(a, b, n).recursion_residuals()
        assert all(v == 0.0 for v in res)


def test_weights_recursion_exact_in_rationals():
    # the scheme itself satisfies a w_{n-j-1} = (a-b) w_{n-j} identically
    a, b, n = Fraction(7, 3), Fraction(5, 4), 6
    w = [Fraction(1, 1) / a]
    for _ in range(n - 1):
        w.append(w[-1] * (a - b) / a)
    w.reverse()
    for j in range(n - 1):
        assert a * w[j] == (a - b) * w[j + 1]


def test_weights_validation_and_flags():
    with pytest.raises(ValidationError):
        barrier_weights(1.0, 1.0, 3)
    with pytest.raises(ValidationError):
        barrier_weights(1.0, 2.0, 3)
    assert barrier_weights(1.0, 0.999, 4).ill_conditioned


def test_weights_upper_scheme_values():
    spec = barrier_weights(2.0, 1.0, 3, scheme="upper")
    a, b = 2.0, 1.0
    assert spec.weights[-1] == pytest.approx(1 / (a + b))
    assert spec.weights[-2] == pytest.approx(a / (a + b) ** 2)


# -- barrier certificates ------------------------------------------------------------

def test_barrier_one_layer_equals_one_hole():
    lam, delta = 0.6 + 0j, 0.1
    dom = ch.domain_from_pseudo([(lam, delta)], meta={"r": 0.9})
    cert = barrier_lower_bound(dom, eta=0.3, n=1)
    exact = 1 - ch.one_hole_exact(lam, delta)
    assert cert.exterior_lower == pytest.approx(exact, abs=1e-12)
    assert cert.rescale_factor == pytest.approx(1.0, abs=1e-12)


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


def test_barrier_requires_uniform_delta():
    dom = ch.domain_from_pseudo([(0.5 + 0j, 0.1), (-0.5 + 0j, 0.2)])
    with pytest.raises(ValidationError):
        barrier_lower_bound(dom)


def test_barrier_refuses_when_rescale_too_large():
    # a tiny explicit b starves the inner layers: the deficit exceeds 10x
    seq = ch.generate_ring_lattice(0.5, 1.5, 7, seed=75)
    dom = ch.build_finitely_connected(seq, 0j, 1 - 2.0 ** -5, "one-minus-r")
    with pytest.raises(NumericalRefusalError):
        barrier_lower_bound(dom, eta=0.9, n=40, b=3.45)


# -- the compiled shell potential against the array sum ------------------------------

def _assert_potentials_match(zeros, shells, weights, pts):
    got = _shell_potential(zeros, shells, weights, pts)
    want = array_shell_potential(zeros, shells, weights, pts)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    return got


def _certificate(dom, **kwargs):
    """(certificate or error, potential inputs and values) of one barrier."""
    calls = []

    def spy(*args):
        calls.append((args, _shell_potential(*args)))
        return calls[-1][1]

    with mock.patch.object(barriers, "_shell_potential", spy):
        try:
            return barrier_lower_bound(dom, **kwargs), calls
        except ChampagneError as exc:
            return exc, calls


@st.composite
def barrier_cases(draw):
    """(domain, barrier arguments) on a random ring lattice.  The bubbles
    lie at rho > 1/2 from the start, so one layer fits them only for
    eta = 0.3; otherwise both evaluations raise the same error."""
    seq = ch.generate_ring_lattice(draw(st.floats(0.3, 0.75)), draw(st.floats(0.5, 3.0)),
                                   draw(st.integers(1, 6)), seed=draw(st.integers(0, 99)))
    start = draw(st.sampled_from([0j, 0.1 + 0.05j, -0.2j, 0.3 - 0.1j]))
    try:
        dom = ch.build_finitely_connected(seq, start, 1.0 - 2.0 ** -draw(st.floats(1.2, 8.0)))
    except ChampagneError:
        assume(False)
    assume(dom.n_bubbles > 0)
    return dom, dict(eta=draw(st.sampled_from([0.3, 0.5, 0.9])),
                     n=draw(st.sampled_from([1, 40, None])), start=start)


@given(barrier_cases())
@settings(max_examples=150, deadline=None)
def test_barrier_matches_the_array_sum(case):
    dom, kwargs = case
    got, calls = _certificate(dom, **kwargs)
    for args, values in calls:
        np.testing.assert_allclose(values, array_shell_potential(*args), rtol=1e-12, atol=0.0)
    with mock.patch.object(barriers, "_shell_potential", array_shell_potential):
        try:
            want = barrier_lower_bound(dom, **kwargs)
        except ChampagneError as exc:
            want = exc
    if isinstance(want, ChampagneError):
        assert type(got) is type(want)
        return
    assert len(calls) == 1
    np.testing.assert_allclose(got.per_bubble_min, want.per_bubble_min, rtol=1e-12, atol=0.0)
    assert got.rescale_factor == pytest.approx(want.rescale_factor, rel=1e-12, abs=0.0)
    assert got.exterior_lower == pytest.approx(want.exterior_lower, rel=0.0, abs=1e-12)
    assert (got.spec, got.n, got.flags) == (want.spec, want.n, want.flags)


def test_potential_on_a_zero_is_infinite():
    zeros = np.array([0.3 + 0.2j, -0.5j, 0.6 + 0j])
    pts = np.array([0.6 + 0j, 0.1j, -0.4 + 0.2j])
    got = _assert_potentials_match(zeros, [1, 2, 2], (0.5, 0.25), pts)
    assert got[0] == math.inf and np.all(np.isfinite(got[1:]))


def test_potential_of_a_shell_whose_product_underflows():
    # 600 zeros at moduli 0.05 to 0.5 around the sample 0: the product of
    # rho^2 is about 1e-750, far below the smallest double
    rng = np.random.default_rng(11)
    zeros = rng.uniform(0.05, 0.5, 600) * np.exp(2j * np.pi * rng.uniform(size=600))
    assert np.prod(np.abs(zeros) ** 2) == 0.0
    pts = np.array([0j, 0.02 + 0.01j, 0.7 - 0.3j])
    got = _assert_potentials_match(zeros, np.ones(600, dtype=np.int64), (0.75,), pts)
    assert got[0] == pytest.approx(-0.75 * np.log(np.abs(zeros)).sum(), rel=1e-13)


def test_potential_1e_200_from_a_zero():
    # |s - lambda|^2 = 1e-400 underflows; rho itself, about 1.2e-200, does not
    zeros = np.array([0.4j, -0.3 + 0.1j, 0.5 + 0.5j])
    pts = np.array([1e-200 + 0.4j, 0.4j + 1e-140, 0.2 + 0j])
    got = _assert_potentials_match(zeros, [1, 1, 2], (1.0, 0.5), pts)
    assert got[0] > 400.0 and np.all(np.isfinite(got))


# -- extremal annular potentials ------------------------------------------------------

def test_extremal_empty_annulus():
    seq = ch.PointSequence(np.array([0.1 + 0j]))
    c, _ = extremal_c(seq, 0.9, probe_points=[0j])
    d, _ = extremal_d(seq, 0.9)
    assert c == 0.0 and d == 0.0


def test_extremal_single_factor_pair():
    seq = ch.PointSequence(np.array([0j, 0.6 + 0j]))
    c, _ = extremal_c(seq, 0.9, probe_points=[0j])
    d, _ = extremal_d(seq, 0.9)
    assert c == pytest.approx(math.log(0.6), abs=1e-12)
    assert d == pytest.approx(math.log(0.6), abs=1e-12)


def test_extremal_c_dominates_d_when_probes_cover_sequence():
    seq = ch.generate_ring_lattice(0.5, 1, 5, seed=42)
    r = 0.9
    c, _ = extremal_c(seq, r, probe_points=seq.points)
    d, _ = extremal_d(seq, r)
    assert c >= d


def test_extremal_trend_with_r():
    # wider annuli only add factors < 1: c(r) decreases in r on a fixed grid
    seq = ch.generate_ring_lattice(0.5, 2, 7, seed=43)
    vals = [extremal_c(seq, r, probe_points=np.array([0j, 0.2 + 0.1j]))[0]
            for r in (1 - 2.0 ** -4, 1 - 2.0 ** -6)]
    assert vals[1] <= vals[0]
