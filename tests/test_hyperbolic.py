import cmath
import pathlib
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import champagne as ch
from champagne.errors import ValidationError
from champagne.hyperbolic import (
    mobius_apply,
    mobius_apply_many,
    pseudo_distance,
    pseudo_distance_many,
    pseudo_to_euclidean_arrays,
)

from conftest import rand_disk_points

disk_points = st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False)


def test_distance_from_origin_is_modulus():
    for w in (0.3, -0.7 + 0.1j, 0.2j, 0.9):
        assert pseudo_distance(0, w) == pytest.approx(abs(w), abs=1e-15)


def test_distance_identity_and_symmetry():
    assert pseudo_distance(0.4 + 0.1j, 0.4 + 0.1j) == 0.0
    a, b = 0.31 - 0.55j, -0.62 + 0.11j
    assert pseudo_distance(a, b) == pseudo_distance(b, a)  # exact, not approx


def test_distance_hand_value():
    # |(0.5 - (-0.5)) / (1 - (-0.5)(0.5))| = 1 / 1.25
    assert pseudo_distance(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)


def test_distance_rejects_outside():
    with pytest.raises(ValidationError):
        pseudo_distance(1.0, 0.0)
    with pytest.raises(ValidationError):
        pseudo_distance(0.0, 1.2)


def test_mobius_special_values():
    a = 0.3 - 0.4j
    assert mobius_apply(a, a) == 0
    assert mobius_apply(a, 0) == a
    assert mobius_apply(0.5, 0.8) == pytest.approx(-0.5, abs=1e-12)


def test_mobius_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        mobius_apply(1.0, 0.0)
    with pytest.raises(ValidationError):
        mobius_apply(0.5, 1.5)


def test_mobius_circle_to_circle():
    a = 0.37 + 0.21j
    for k in range(16):
        w = mobius_apply(a, cmath.exp(2j * cmath.pi * k / 16))
        assert abs(w) == pytest.approx(1.0, abs=1e-12)


@given(disk_points, disk_points)
@settings(max_examples=200, deadline=None)
def test_mobius_involution(a, z):
    assert mobius_apply(a, mobius_apply(a, z)) == pytest.approx(z, abs=1e-12)


@given(disk_points, disk_points, disk_points)
@settings(max_examples=200, deadline=None)
def test_mobius_invariance_of_distance(a, z, w):
    d0 = pseudo_distance(z, w)
    d1 = pseudo_distance(mobius_apply(a, z), mobius_apply(a, w))
    assert d1 == pytest.approx(d0, abs=1e-12)


def test_pseudo_to_euclidean_origin():
    center, radius = pseudo_to_euclidean_arrays(0j, 0.37)
    assert center == 0
    assert radius == pytest.approx(0.37, abs=1e-15)


def test_pseudo_to_euclidean_hand_value():
    center, radius = pseudo_to_euclidean_arrays(0.5 + 0j, 0.5)
    assert center == pytest.approx(0.4, abs=1e-12)
    assert radius == pytest.approx(0.4, abs=1e-12)
    # real-axis crossings of the pseudo circle: rho(0.5, x) = 0.5 at 0 and 0.8
    assert pseudo_distance(0.5, center - radius) == pytest.approx(0.5, abs=1e-12)
    assert pseudo_distance(0.5, center + radius) == pytest.approx(0.5, abs=1e-12)


def test_pseudo_to_euclidean_sampling_oracle():
    # independent oracle: sample the pseudo circle rho(c, .) = r through the
    # automorphism at c and fit the circumscribing Euclidean circle
    c, r = 0.9 + 0j, 0.5
    theta = 2.0 * np.pi * np.arange(10_000) / 10_000
    pts = np.array([mobius_apply(c, r * np.exp(1j * t)) for t in theta])
    cx = (pts.real.max() + pts.real.min()) / 2.0
    rad = (pts.real.max() - pts.real.min()) / 2.0
    ctr = complex(cx, 0.0)
    assert np.allclose(np.abs(pts - ctr), rad, atol=1e-9)

    center, radius = pseudo_to_euclidean_arrays(c, r)
    assert center == pytest.approx(ctr, abs=1e-9)
    assert radius == pytest.approx(rad, abs=1e-9)


def test_boundary_points_at_stated_pseudo_distance():
    rng = np.random.default_rng(7)
    centers = rand_disk_points(rng, 50, 0.9)
    radii = rng.uniform(0.05, 0.6, 50)
    for c, r in zip(centers, radii):
        center, radius = pseudo_to_euclidean_arrays(c, r)
        p = center + radius * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        assert pseudo_distance(c, p) == pytest.approx(r, abs=1e-10)
        assert abs(center) + radius < 1.0


def test_disk_validation():
    for bad in ((0j, 0.0), (0j, 1.0), (1.0 + 0j, 0.5)):
        with pytest.raises(ValidationError):
            ch.domain_from_pseudo([bad])


def test_broadcast_forms_match_scalar_exactly():
    rng = np.random.default_rng(5)
    z = rand_disk_points(rng, 40)
    w = rand_disk_points(rng, 40)
    elementwise = pseudo_distance_many(z, w)
    moved = mobius_apply_many(z, w)
    radii = rng.uniform(1e-6, 1.0 - 1e-6, z.size)
    realized = pseudo_to_euclidean_arrays(z, radii)
    for k in range(z.size):
        assert elementwise[k] == pseudo_distance(z[k], w[k])
        assert moved[k] == mobius_apply(z[k], w[k])
        assert pseudo_to_euclidean_arrays(z[k], radii[k]) == (realized[0][k], realized[1][k])
    # one point against many, and a full pairwise block
    assert np.array_equal(pseudo_distance_many(z[0], w),
                          [pseudo_distance(z[0], v) for v in w])
    block = pseudo_distance_many(z[:7, None], w[None, :9])
    moved = mobius_apply_many(z[:7, None], w[None, :9])
    assert block.shape == moved.shape == (7, 9)
    for i in range(7):
        for j in range(9):
            assert block[i, j] == pseudo_distance(z[i], w[j])
            assert moved[i, j] == mobius_apply(z[i], w[j])


def _exact_rho(z, w):
    """(rho, |1 - conj(w) z|) of the doubles z and w, to 60 digits."""
    a, b, c, e = map(Fraction, (z.real, z.imag, w.real, w.imag))
    d2 = (a - c) ** 2 + (b - e) ** 2
    b2 = d2 + (1 - a * a - b * b) * (1 - c * c - e * e)
    with localcontext() as ctx:
        ctx.prec = 60
        d2, b2 = (Decimal(v.numerator) / Decimal(v.denominator) for v in (d2, b2))
        return (d2 / b2).sqrt(), b2.sqrt()


def test_rho_rounding_is_bounded_on_rim_pairs():
    # pairs by the rim, down to 1e-12 from it, and near each other, down to
    # 1e-24 apart: rho(z, w) and rho(w, z) are one double, never above 1,
    # within (3.5 + 1 / b) 2^-52 of the exact rho of the doubles (the error
    # bound the nearest search of _grid.c allows for, b = |1 - conj(w) z|),
    # and its error times b stays under 3 units of 2^-53 (1.79 measured)
    rng = np.random.default_rng(17)
    n = 3000
    gap = 10.0 ** rng.uniform(-12.0, -0.05, n)
    z = (1.0 - gap) * np.exp(2j * np.pi * rng.random(n))
    step = 10.0 ** rng.uniform(-12.0, 0.3, n) * np.exp(2j * np.pi * rng.random(n))
    far = (1.0 - 10.0 ** rng.uniform(-12.0, -0.05, n)) * np.exp(2j * np.pi * rng.random(n))
    kind = np.arange(n) % 3
    w = np.where(kind == 0, z + step * gap, np.where(kind == 1, z + step, far))
    keep = (np.abs(w) <= 1.0 - 1e-12) & (w != z)
    z, w = z[keep], w[keep]
    forward, backward = pseudo_distance_many(z, w), pseudo_distance_many(w, z)
    assert np.array_equal(forward, backward)
    assert forward.max() <= 1.0
    worst_bound = worst_scaled = 0.0
    for k in range(z.size):
        rho, b = _exact_rho(z[k], w[k])
        err = abs(Decimal(float(forward[k])) - rho)
        worst_bound = max(worst_bound, float(err / ((Decimal(3.5) + 1 / b) * Decimal(2) ** -52)))
        worst_scaled = max(worst_scaled, float(err * b * 2 ** 53))
    assert worst_bound <= 1.0
    assert worst_bound > 0.1      # a bound many times too wide would search more than it needs
    assert worst_scaled <= 3.0
    # pairs 1e-160 and 1e-200 apart, whose |z - w|^2 underflows below 1e-300
    # (hypot(dx, dy) does not), are within 2^-52 of the exact rho relatively
    for apart in (1e-160, 1e-200):
        for z, w in [(0.4j, 0.4j + apart), (-0.5, complex(-0.5, apart)), (apart * (1 + 1j), 0.0)]:
            rho, _ = _exact_rho(complex(z), complex(w))
            got = float(pseudo_distance_many(z, w))
            assert got == pseudo_distance(w, z) > 0.0
            assert abs(Decimal(got) - rho) <= Decimal(2) ** -52 * rho


def test_mobius_formula_lives_in_hyperbolic_only():
    src = pathlib.Path(ch.__file__).parent
    inline = [f.name for f in sorted(src.glob("*.py"))
              if f.name != "hyperbolic.py" and "1.0 - np.conj(" in f.read_text()]
    assert inline == []


def test_realization_formula_is_stated_once():
    src = pathlib.Path(ch.__file__).parent
    found = {f.name: f.read_text().count("1.0 - r * r * m2")
             for f in sorted(src.rglob("*")) if f.suffix in (".py", ".c")}
    assert {k: v for k, v in found.items() if v} == {"hyperbolic.py": 1}
