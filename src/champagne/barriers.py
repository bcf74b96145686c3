"""Deterministic harmonic-measure bounds from Blaschke potentials.

Each bound is 1 - U(start), U = sum_k w_k G_k, G_k = log(1/rho(., lambda_k))
for bubble centre lambda_k: G_k is harmonic off bubble k and 0 on the unit
circle, so a U >= 1 on every bubble boundary dominates the bubbles' harmonic
measure (maximum principle), whatever the signs of the weights.  The bounds
differ only in their weights over one matrix of G_k summed by group
(_charge_matrix, compiled in _blaschke.c: one log per group and point):
- walker.sandwich_bounds, one group per bubble, w_k = 1/log(1/s_k) for
  pseudo radius s_k, so w_k G_k is the measure of bubble k alone: lower_union
  takes every w_k, upper_single one bubble's (an upper bound, as removing
  bubbles raises the exterior measure);
- barrier_lower_bound, one group and weight per modulus shell j, so that
  U = sum_j w_j (-log|B_j|) with B_j the Blaschke product over shell j.  The
  weights that give the best bound on the sampled bubble boundaries solve one
  small linear program, posed with w >= 0 (on five ring-lattice domains the
  free-sign program reached the same optimum, with positive weights),

    min U(start)  subject to  U >= 1 at every sample,  w >= 0,

  solved through its dual by a revised simplex (_shell_weights).  The
  certificate recomputes U at every sample and rescales the weights by the
  observed minimum, so an inexact optimum costs tightness, never validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .domains import ChampagneDomain, transport_domain
from .errors import NumericalRefusalError, ValidationError
from .hyperbolic import require_disk_point

_MAX_PIVOTS = 1000   # simplex pivots before the barrier is refused


def _charge_matrix(zeros, groups, pts) -> np.ndarray:
    """The (points x groups) matrix of -log|B_g(pt)|, B_g the Blaschke product
    over the zeros of group g: groups[k] is the 0-based column of zero k, up
    to the largest.  +inf on a zero of that group; an empty group gives 0."""
    zeros = np.asarray(zeros, dtype=np.complex128)
    groups = np.asarray(groups, dtype=np.int64)
    pts = np.ascontiguousarray(pts, dtype=np.complex128)
    n_groups = int(groups.max(initial=-1)) + 1
    order = np.argsort(groups, kind="stable")
    group_start = np.searchsorted(groups[order], np.arange(n_groups + 1))
    out = np.empty((pts.size, n_groups))
    _native.library().barrier_potential(np.ascontiguousarray(zeros[order]), group_start,
                                        n_groups, pts, pts.size, out)
    return out


def _shell_weights(M: np.ndarray) -> np.ndarray:
    """Weights w >= 0 that minimise c.w subject to A w >= 1, where A is M
    without its last row and c is that row.

    They are the prices of the dual, max sum(y) s.t. A^T y <= c, y >= 0,
    solved by a revised simplex from the slack basis with Dantzig pricing.
    Refuses after _MAX_PIVOTS pivots, or when the dual is unbounded (a
    sample where every shell potential vanishes)."""
    A, c = M[:-1], M[-1]
    n = c.size
    # the dual's columns, samples then slacks, as one row-major block:
    # w @ cols then runs at twice the speed of the (points x shells) product
    cols = np.hstack([A.T, np.eye(n)])
    gain = np.concatenate([np.ones(len(A)), np.zeros(n)])
    basis = np.arange(len(A), cols.shape[1])
    for _ in range(_MAX_PIVOTS):
        B = cols[:, basis]
        w = np.linalg.solve(B.T, gain[basis])
        reduced = gain - w @ cols          # 1 - (A w)_p for samples, -w_j for slacks
        k = int(np.argmax(reduced))
        if reduced[k] <= 1e-12:
            return w
        x, d = np.linalg.solve(B, np.column_stack([c, cols[:, k]])).T
        rows = np.flatnonzero(d > 1e-12 * np.abs(d).max())
        if rows.size == 0:
            raise NumericalRefusalError(
                "the shell barrier cannot reach 1 at a boundary sample where every "
                "shell potential vanishes")
        basis[rows[np.argmin(x[rows] / d[rows])]] = k
    raise NumericalRefusalError(f"the shell weights found no optimum in {_MAX_PIVOTS} "
                                "simplex pivots")


def shell_of_modulus(m, eta: float):
    """1-based shell index: shell 1 is [0, 1-eta], shell j>=2 is
    (1-eta^(j-1), 1-eta^j].

    Right-closed so that a lattice ring at modulus 1-eta^j lands in shell
    j exactly; near-tie moduli snap to the nearest boundary.
    """
    m = np.asarray(m, dtype=np.float64)
    with np.errstate(divide="ignore"):
        xp = np.log(1.0 - m) / math.log(eta)
    near = np.abs(xp - np.round(xp)) < 1e-9
    j = np.where(near, np.round(xp), np.ceil(xp)).astype(np.int64)
    j = np.maximum(j, 1)
    return j if j.ndim else int(j)


@dataclass(frozen=True)
class BarrierCertificate:
    exterior_lower: float
    barrier_at_start: float        # U(start) after rescaling
    rescale_factor: float
    per_bubble_min: tuple          # min of rescaled U over each bubble boundary
    shells: tuple                  # the occupied shell indices, ascending
    weights: tuple                 # rescaled; weights[k] is the weight of shells[k]
    eta: float
    sample_density: int
    flags: tuple


def barrier_lower_bound(domain: ChampagneDomain, eta: float = 0.5, start=0j,
                        boundary_sample_density: int = 64) -> BarrierCertificate:
    """Certified lower bound on the exterior harmonic measure at `start`.

    Builds U = sum_j w_j * log(1/|B_j|) over the modulus shells of
    shell_of_modulus(|center|, eta), the bubble centers seen from `start`.
    The weights w >= 0 minimise U(start) subject to U >= 1 at
    `boundary_sample_density` samples on each bubble boundary
    (_shell_weights), whose columns are the shells holding a bubble center;
    an empty shell's potential vanishes, so it has no weight, and the
    certificate reports only these `shells`.  The certificate then
    recomputes U at every sample, rescales w by the least value, and returns
    max(0, 1 - U(start)).  Bubbles may have any pseudo radii.  Refuses when U is not positive at
    some sample, or when the solver does.
    """
    start = complex(start)
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta must lie in (0, 1), got {eta!r}")
    if boundary_sample_density < 4:
        raise ValidationError("need at least 4 samples per bubble boundary")
    domain.require_interior(start, "start")
    require_disk_point(start, "start")   # transport_domain needs the rim margin
    if domain.n_bubbles == 0:
        return BarrierCertificate(
            exterior_lower=1.0, barrier_at_start=0.0, rescale_factor=1.0, per_bubble_min=(),
            shells=(), weights=(), eta=eta, sample_density=boundary_sample_density,
            flags=("empty domain",))
    if start != 0:
        domain = transport_domain(domain, start)

    # the shell potentials on each bubble boundary, then at the start, 0
    zeros = domain.pseudo_centers
    shells = shell_of_modulus(np.abs(zeros), eta)
    m = boundary_sample_density
    theta = 2.0 * math.pi * np.arange(m) / m
    ring = np.exp(1j * theta)
    samples = (domain.centers[:, None] + domain.radii[:, None] * ring[None, :]).ravel()
    # an empty shell's potential vanishes: it is no column and no weight
    occupied, column = np.unique(shells, return_inverse=True)
    M = _charge_matrix(zeros, column, np.append(samples, 0j))
    # a bubble below coordinate resolution has samples that round onto its
    # centre, where its own shell's potential reads +inf; on its boundary
    # that potential is at least log(1/s_k) (|B| <= rho = s_k), a lower bound
    own = (np.arange(samples.size), np.repeat(column, m))
    M[own] = np.where(np.isinf(M[own]), np.repeat(-np.log(domain.pseudo_radii), m), M[own])
    # any weights give a valid barrier; the program is posed with w >= 0, so
    # the clip only removes rounding, and U is recomputed, not trusted
    w = np.maximum(_shell_weights(M), 0.0)
    u_vals = M @ w
    per_bubble_min = u_vals[:-1].reshape(domain.n_bubbles, m).min(axis=1)
    m_min = float(per_bubble_min.min())
    if not m_min > 0.0:
        raise NumericalRefusalError(
            "barrier vanished on a bubble boundary; the shell partition is degenerate"
        )
    factor = 1.0 / m_min
    u0 = float(u_vals[-1]) * factor
    return BarrierCertificate(
        exterior_lower=max(0.0, 1.0 - u0),
        barrier_at_start=u0,
        rescale_factor=factor,
        per_bubble_min=tuple(float(v) * factor for v in per_bubble_min),
        shells=tuple(occupied.tolist()), weights=tuple((w * factor).tolist()), eta=eta,
        sample_density=boundary_sample_density, flags=())

