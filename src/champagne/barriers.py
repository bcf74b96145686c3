"""Deterministic harmonic-measure bounds from finite Blaschke products.

The potential -log|B| of a finite Blaschke product is superharmonic,
positive inside the disk, and vanishes on the unit circle.  A weighted
sum of such potentials over modulus shells that dominates 1 on every
bubble boundary therefore dominates the harmonic measure of the bubbles,
and its value at the start point bounds the exterior measure from below.
Rather than carrying asymptotic constants, the certificate checks the
boundary inequality numerically on sampled bubble boundaries and rescales
the weights by the observed deficit.

The potential at the samples and at the start point is evaluated by the
compiled library (_blaschke.c, through _shell_potential): one log per
shell and point, no pair-sized temporaries, and no walk grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .domains import ChampagneDomain, transport_domain
from .errors import NumericalRefusalError, ValidationError
from .hyperbolic import mobius_apply_many, pseudo_distance_many
from .sequences import PointSequence, probe_lattice
from .spatial import PointIndex

ILL_CONDITIONED_RATIO = 1e-2   # (a-b)/a below this: weights collapse geometrically
MAX_RESCALE = 10.0             # deficit factor beyond which the barrier is refused


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product given by its zero multiset."""

    zeros: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=np.complex128)
        if z.size and not np.all(np.abs(z) < 1.0):
            raise ValidationError("Blaschke zeros must lie in the open unit disk")
        z.setflags(write=False)
        object.__setattr__(self, "zeros", z)

    def __len__(self) -> int:
        return int(self.zeros.size)


def log_blaschke(zeros, z) -> float:
    """log|B(z)| as a stable sum of log pseudohyperbolic distances.

    Never exponentiates; returns -inf when z coincides with a zero.
    Empty products give 0.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValidationError(f"log_blaschke needs |z| < 1, got |z|={abs(z)!r}")
    zs = np.asarray(zeros, dtype=np.complex128)
    if zs.size == 0:
        return 0.0
    rho = pseudo_distance_many(z, zs)
    if np.any(rho == 0.0):
        return -math.inf
    return float(np.log(rho).sum())


def _shell_potential(zeros, shells, weights, pts) -> np.ndarray:
    """U(s) = -sum_j w_j log|B_j(s)| at each point s: B_j is the Blaschke
    product over the zeros in shell j (shells[k] is zero k's 1-based shell)
    and w_j = weights[j - 1].  +inf on a zero."""
    zeros = np.asarray(zeros, dtype=np.complex128)
    shells = np.asarray(shells, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    pts = np.ascontiguousarray(pts, dtype=np.complex128)
    order = np.argsort(shells, kind="stable")
    shell_start = np.searchsorted(shells[order], np.arange(1, weights.size + 2))
    out = np.empty(pts.size)
    _native.library().barrier_potential(np.ascontiguousarray(zeros[order]), shell_start,
                                        weights.size, weights, pts, pts.size, out)
    return out


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


def annular_partition(seq: PointSequence, eta: float, n: int) -> list[BlaschkeProduct]:
    """Split the sequence into n modulus shells; shells may be empty.

    Points beyond modulus 1 - eta^n are not assigned to any shell.
    """
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta must lie in (0, 1), got {eta!r}")
    if n < 1:
        raise ValidationError("n must be >= 1")
    shells = shell_of_modulus(np.abs(seq.points), eta)
    return [BlaschkeProduct(seq.points[shells == j]) for j in range(1, n + 1)]


@dataclass(frozen=True)
class BarrierSpec:
    """Layer weights for the shell barrier.

    Lower scheme: w_n = 1/a, w_{n-j} = (1/a) ((a-b)/a)^j.
    Upper scheme: w_n = 1/(a+b), w_{n-1} = a/(a+b)^2, ratio a/(a+b).
    """

    a: float
    b: float
    n: int
    weights: tuple          # weights[j-1] is the weight of shell j
    scheme: str
    ill_conditioned: bool

    def recursion_residuals(self) -> tuple:
        """a * w_{n-j-1} - (a-b) * w_{n-j} for the lower scheme; all zero
        when the recursion holds exactly."""
        w = self.weights
        return tuple(self.a * w[i] - (self.a - self.b) * w[i + 1]
                     for i in range(len(w) - 1))


def barrier_weights(a: float, b: float, n: int, scheme: str = "lower") -> BarrierSpec:
    if not (a > b > 0.0):
        raise ValidationError(
            f"need a > b > 0 for positive weights (got a={a!r}, b={b!r}); the barrier is vacuous otherwise"
        )
    if n < 1:
        raise ValidationError("layer count n must be >= 1")
    if scheme == "lower":
        head = 1.0 / a
        ratio = (a - b) / a
    elif scheme == "upper":
        head = 1.0 / (a + b)
        ratio = a / (a + b)
    else:
        raise ValidationError(f"unknown weight scheme {scheme!r}")
    w = [head]
    for _ in range(n - 1):
        w.append(w[-1] * ratio)
    w.reverse()  # w[0] belongs to the innermost shell
    return BarrierSpec(a=float(a), b=float(b), n=int(n), weights=tuple(w),
                       scheme=scheme, ill_conditioned=bool((a - b) / a < ILL_CONDITIONED_RATIO))


@dataclass(frozen=True)
class BarrierCertificate:
    exterior_lower: float
    barrier_at_start: float        # U(0) after rescaling
    rescale_factor: float
    per_bubble_min: tuple          # min of rescaled U over each bubble boundary
    spec: BarrierSpec | None
    a: float
    b: float
    b_was_clipped: bool
    eta: float
    n: int
    sample_density: int
    flags: tuple


def barrier_lower_bound(domain: ChampagneDomain, eta: float = 0.5,
                        n: int | None = None, start=0j, boundary_sample_density: int = 64,
                        b: float | None = None) -> BarrierCertificate:
    """Certified lower bound on the exterior harmonic measure at `start`.

    Builds U = sum_j w_j * log(1/|B_j|) over modulus shells of the bubble
    centers, verifies U >= 1 on sampled bubble boundaries (rescaling all
    weights by the observed extremum), and returns max(0, 1 - U(start)).
    Refuses when the required deficit rescale exceeds 10x.
    """
    start = complex(start)
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta must lie in (0, 1), got {eta!r}")
    if boundary_sample_density < 4:
        raise ValidationError("need at least 4 samples per bubble boundary")
    domain.require_interior(start, "start")
    if domain.n_bubbles == 0:
        return BarrierCertificate(
            exterior_lower=1.0, barrier_at_start=0.0, rescale_factor=1.0,
            per_bubble_min=(), spec=None, a=math.inf, b=0.0, b_was_clipped=False,
            eta=eta, n=0, sample_density=boundary_sample_density, flags=("empty domain",))
    if start != 0:
        domain = transport_domain(domain, start)

    deltas = domain.pseudo_radii
    if float(deltas.max() - deltas.min()) > 1e-12:
        raise ValidationError(
            "the shell barrier needs a single pseudohyperbolic bubble radius; "
            "build the domain with a uniform delta"
        )
    delta = float(deltas[0])
    a = math.log(1.0 / delta)

    zeros = domain.pseudo_centers
    moduli = np.abs(zeros)
    shells = shell_of_modulus(moduli, eta)
    if n is None:
        n = int(shells.max())
    if int(shells.max()) > n:
        raise ValidationError(
            f"{int(np.count_nonzero(shells > n))} bubble(s) fall beyond shell {n}; increase n"
        )

    flags = []
    b_clipped = False
    if b is None and n > 1:
        # per-layer potential scale from the observed density of the
        # annulus points, in the same normalization as the density curves
        r_sel = float(domain.meta.get("r", min(0.999999, float(moduli.max()) + delta)))
        dens = float(np.sum(1.0 - moduli)) / math.log(1.0 / (1.0 - r_sel))
        b_raw = dens * math.log(1.0 / eta)
        b_val = b_raw
        if b_val >= 0.9 * a:
            b_val = 0.9 * a
            b_clipped = True
            flags.append(f"derived b={b_raw:.4g} clipped to 0.9*a; the boundary check redeems validity")
        if b_val <= 0.0:
            b_val = 0.5 * a
    elif b is None:
        b_val = 0.5 * a  # single layer: the weight 1/a does not involve b
    else:
        b_val = float(b)
    spec = barrier_weights(a, b_val, n, scheme="lower")
    if spec.ill_conditioned:
        flags.append("weight decay ratio below 1e-2: deep shells contribute negligibly")

    # sample each bubble boundary and take the minimum of U; U(0), the
    # value at the start, comes last
    m = boundary_sample_density
    theta = 2.0 * math.pi * np.arange(m) / m
    ring = np.exp(1j * theta)
    samples = (domain.centers[:, None] + domain.radii[:, None] * ring[None, :]).ravel()
    u_vals = _shell_potential(zeros, shells, spec.weights, np.append(samples, 0j))
    per_bubble_min = u_vals[:-1].reshape(domain.n_bubbles, m).min(axis=1)
    m_min = float(per_bubble_min.min())
    if not m_min > 0.0:
        raise NumericalRefusalError(
            "barrier vanished on a bubble boundary; the shell partition is degenerate"
        )
    factor = 1.0 / m_min
    if factor > MAX_RESCALE:
        raise NumericalRefusalError(
            f"barrier needs a {factor:.3g}x rescale to dominate the bubble boundaries; "
            f"beyond the {MAX_RESCALE:g}x refusal threshold"
        )
    u0 = float(u_vals[-1]) * factor
    return BarrierCertificate(
        exterior_lower=max(0.0, 1.0 - u0),
        barrier_at_start=u0,
        rescale_factor=factor,
        per_bubble_min=tuple(float(v) * factor for v in per_bubble_min),
        spec=spec, a=a, b=b_val, b_was_clipped=b_clipped, eta=eta, n=n,
        sample_density=boundary_sample_density, flags=tuple(flags))


# ---------------------------------------------------------------------------
# extremal annular potentials

def _annulus_log_products(pts: np.ndarray, probes: np.ndarray, r: float) -> np.ndarray:
    """log of the Blaschke product over {lambda: 1/2 < rho(lambda, z) < r},
    evaluated at z, for each probe z."""
    out = np.zeros(probes.size)
    for q0, offsets, items in PointIndex(pts).pseudo_balls(probes, r):
        lens = np.diff(offsets)
        rho = pseudo_distance_many(np.repeat(probes[q0:q0 + lens.size], lens), pts[items])
        keep = (rho > 0.5) & (rho < r)
        logs = np.log(rho[keep])
        # each probe's logs are contiguous, ascending in the point index, and
        # summed by their own np.sum: its pairwise order is that of a scan
        # of the probe alone (np.add.reduceat would add in another order)
        ends = np.concatenate([[0], np.cumsum(keep)])[offsets]
        for k in np.flatnonzero(ends[1:] > ends[:-1]):
            out[q0 + k] = logs[ends[k]:ends[k + 1]].sum()
    return out


def extremal_c(seq: PointSequence, r: float, probe_points=None,
               include_shifts: bool = True, grid_density: float = 2.0,
               seed: int = 987):
    """sup over probes of log|B_z(z)|, the annular Blaschke product with
    zeros at 1/2 < rho(lambda, z) < r.  Returns (value, maximizer)."""
    if not 0.5 < r < 1.0:
        raise ValidationError(f"r must lie in (1/2, 1), got {r!r}")
    if probe_points is None:
        probes = [probe_lattice(seq.max_modulus, density=grid_density, seed=seed), seq.points]
        if include_shifts:
            # points nudged off-center (pseudo distance 0.05) probe the sup
            # near each lattice site
            for s in (0.05, -0.05, 0.05j, -0.05j):
                probes.append(mobius_apply_many(seq.points, s))
        probes = np.concatenate(probes)
    else:
        probes = np.asarray(probe_points, dtype=np.complex128)
    if probes.size == 0:
        return -math.inf, None
    v = _annulus_log_products(seq.points, probes, r)
    best = int(np.argmax(v))
    return float(v[best]), complex(probes[best])


def extremal_d(seq: PointSequence, r: float):
    """inf over lambda of log|B_lambda(lambda)| with the same annular
    zeros.  Returns (value, minimizer)."""
    if not 0.5 < r < 1.0:
        raise ValidationError(f"r must lie in (1/2, 1), got {r!r}")
    v = _annulus_log_products(seq.points, seq.points, r)
    worst = int(np.argmin(v))
    return float(v[worst]), complex(seq.points[worst])
