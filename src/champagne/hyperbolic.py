"""Exact pseudohyperbolic geometry of the unit disk.

Points are plain complex numbers.  The pseudohyperbolic distance is
rho(z, w) = |(z - w) / (1 - conj(w) z)|, invariant under disk
automorphisms; pseudo_distance_many states the package's one formula
for it, which the compiled nearest search (_grid.c) and the charge
matrix of the barrier and the sandwich bounds (_blaschke.c) evaluate
too.  A pseudohyperbolic disk is given by its center and radius arrays,
never as an object; pseudo_to_euclidean_arrays realizes disks as exact
Euclidean circles, which the walker works on.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Moduli above 1 - BOUNDARY_MARGIN are rejected at construction; the walker
# has its own epsilon-shell and never needs points this close to the rim.
BOUNDARY_MARGIN = 1e-12
# a squared distance d^2 below this is replaced by hypot: |z - w| < 1e-150
TINY_SQUARE = 1e-300


def require_disk_point(z, name: str = "z") -> complex:
    """Validate and return a point of the open unit disk."""
    z = complex(z)
    if not abs(z) <= 1.0 - BOUNDARY_MARGIN:
        raise ValidationError(f"{name}={z!r} is not inside the open unit disk (|{name}|={abs(z)!r})")
    return z


def pseudo_distance(z, w) -> float:
    """Pseudohyperbolic distance between two points of the open disk.

    Symmetric, zero iff z == w, and invariant under disk automorphisms.
    """
    z = require_disk_point(z, "z")
    w = require_disk_point(w, "w")
    return float(pseudo_distance_many(z, w))


def pseudo_distance_many(z, w) -> np.ndarray:
    """rho(z, w) elementwise, broadcasting z against w (no per-point checks).

    rho = sqrt(d^2 / b^2) with d^2 = dx^2 + dy^2 for z - w = dx + i dy and
    b^2 = |1 - conj(w) z|^2 = d^2 + (1 - |z|^2)(1 - |w|^2), so rho(z, w)
    and rho(w, z) are the same double and rho <= 1 for z and w in the
    disk.  Where d^2 < 1e-300 (it would lose bits or underflow) rho is
    hypot(dx, dy) / sqrt(b^2).  pseudo_distance wraps it, and the compiled
    nearest search (_grid.c) evaluates it operation for operation, so
    each agrees with it bit for bit.
    """
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    x, y, u, v = z.real, z.imag, w.real, w.imag
    dx = x - u
    dy = y - v
    d2 = dx * dx + dy * dy
    b2 = d2 + (1.0 - (x * x + y * y)) * (1.0 - (u * u + v * v))
    rho = np.asarray(np.sqrt(d2 / b2))
    tiny = np.flatnonzero(d2 < TINY_SQUARE)
    if tiny.size:
        rho.flat[tiny] = np.hypot(dx.flat[tiny], dy.flat[tiny]) / np.sqrt(b2.flat[tiny])
    return rho


def mobius_apply(a, z) -> complex:
    """Apply the automorphism phi_a(z) = (a - z) / (1 - conj(a) z).

    phi_a swaps a and 0, is an involution, and maps the unit circle to
    itself.  `z` may lie on the closed disk; `a` must be interior.
    """
    a = require_disk_point(a, "a")
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise ValidationError(f"mobius_apply: |z|={abs(z)!r} exceeds 1")
    return complex(mobius_apply_many(a, z))


def mobius_apply_many(a, z) -> np.ndarray:
    """phi_a(z) elementwise, broadcasting a against z (no per-point checks);
    mobius_apply wraps it."""
    a = np.asarray(a, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    return (a - z) / (1.0 - np.conj(a) * z)


def pseudo_to_euclidean_arrays(centers: np.ndarray, radii: np.ndarray):
    """Euclidean (centers, radii) of pseudo disks, elementwise (no
    per-disk checks): every boundary point of a realized disk is at
    pseudohyperbolic distance exactly its radius from its center.  It is
    the one realization; ChampagneDomain realizes its bubbles here."""
    c = np.asarray(centers, dtype=np.complex128)
    r = np.asarray(radii, dtype=np.float64)
    m2 = np.abs(c) ** 2
    denom = 1.0 - r * r * m2
    return c * (1.0 - r * r) / denom, r * (1.0 - m2) / denom
