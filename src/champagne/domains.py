"""Champagne subdomains of the unit disk and the radius-decay criterion.

A champagne domain is the unit disk minus finitely many pairwise disjoint
closed bubbles.  Bubbles come from pseudohyperbolic disks D(lambda, phi(|lambda|))
realized as Euclidean disks; the decay profile phi decides, through the
criterion evaluated here in integral and sum form, whether the exterior
circle keeps positive harmonic measure as the truncation deepens.  The
criterion is decided exactly per profile kind, in closed form; a table
profile is inconclusive by construction, since its rows stop before the
rim.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OverlapError, ValidationError
from .hyperbolic import (
    BOUNDARY_MARGIN,
    mobius_apply_many,
    pseudo_distance_many,
    pseudo_to_euclidean_arrays,
    require_disk_point,
)
from .sequences import PointSequence, separation
from .spatial import DiskGridIndex, PointIndex, nearest_disk

_EXP_GUARD = 700.0  # exponents beyond this under/overflow float64

# Lattice points sit on their rings only to within an ulp of rounding; the
# selection predicates snap by this much so whole rings land on one side of
# a cut that nominally passes through them.
_TIE_SNAP = 1e-12


# ---------------------------------------------------------------------------
# radius profiles

@dataclass(frozen=True)
class RadiusProfile:
    """Nonincreasing bubble-radius profile phi on (0, 1), bounded below 1.

    kinds:
      const c              phi(t) = c
      power c, gamma       phi(t) = c (1-t)^gamma
      expinv c, beta       phi(t) = exp(-c / (1-t)^beta)
      table                monotone piecewise-linear in t, clamped outside
    """

    kind: str
    params: tuple = ()
    table_t: np.ndarray | None = None
    table_phi: np.ndarray | None = None

    def __post_init__(self):
        k = self.kind
        if k == "const":
            (c,) = self.params
            if not 0.0 < c < 1.0:
                raise ValidationError(f"const profile needs c in (0,1), got {c!r}")
        elif k == "power":
            c, gamma = self.params
            if not 0.0 < c < 1.0:
                raise ValidationError(f"power profile needs c in (0,1), got {c!r}")
            if not 0.0 < gamma < math.inf:
                raise ValidationError(f"power profile needs a finite gamma > 0, got {gamma!r}")
        elif k == "expinv":
            c, beta = self.params
            if not (0.0 < c < math.inf and 0.0 < beta < math.inf):
                raise ValidationError(f"expinv profile needs finite c, beta > 0, got {self.params!r}")
        elif k == "table":
            t = np.asarray(self.table_t, dtype=np.float64)
            p = np.asarray(self.table_phi, dtype=np.float64)
            if t.ndim != 1 or t.size < 2 or t.shape != p.shape:
                raise ValidationError("table profile needs aligned t/phi arrays with >= 2 rows")
            if not np.all(np.diff(t) > 0):
                raise ValidationError("table t-values must be strictly increasing")
            if not np.all(np.diff(p) <= 0):
                raise ValidationError("table phi-values must be nonincreasing")
            if not (np.all(p > 0.0) and np.all(p < 1.0)):
                raise ValidationError("table phi-values must lie in (0,1)")
            if not np.all((t > 0.0) & (t < 1.0)):
                raise ValidationError("table t-values must lie in (0,1)")
            t.setflags(write=False)
            p.setflags(write=False)
            object.__setattr__(self, "table_t", t)
            object.__setattr__(self, "table_phi", p)
        else:
            raise ValidationError(f"unknown profile kind {k!r}")

    # evaluation is done in gap space s = 1 - t; near the rim t itself
    # loses precision long before s does

    def value_at_gap(self, s):
        s = np.asarray(s, dtype=np.float64)
        if self.kind == "const":
            out = np.full_like(s, self.params[0])
        elif self.kind == "power":
            c, gamma = self.params
            out = c * s ** gamma
        elif self.kind == "expinv":
            c, beta = self.params
            with np.errstate(divide="ignore", over="ignore"):
                out = np.exp(-c / s ** beta)
        else:
            t = np.clip(1.0 - s, self.table_t[0], self.table_t[-1])
            out = np.interp(t, self.table_t, self.table_phi)
        return out if out.ndim else float(out)

    def log_inv_at_loggap(self, log_s):
        """log(1/phi) evaluated at gap exp(log_s), computed in log space."""
        log_s = np.asarray(log_s, dtype=np.float64)
        if self.kind == "const":
            out = np.full_like(log_s, math.log(1.0 / self.params[0]))
        elif self.kind == "power":
            c, gamma = self.params
            out = math.log(1.0 / c) - gamma * log_s
        elif self.kind == "expinv":
            c, beta = self.params
            e = -beta * log_s
            out = np.where(e > _EXP_GUARD, np.inf, c * np.exp(np.minimum(e, _EXP_GUARD)))
        else:
            with np.errstate(over="ignore"):
                gap = np.exp(log_s)
            out = np.log(1.0 / self.value_at_gap(gap))
        return out if out.ndim else float(out)

    def criterion_term_at_loggap(self, log_s):
        """1 / log(1/phi) at gap exp(log_s); 0 where log(1/phi) overflows."""
        li = np.asarray(self.log_inv_at_loggap(log_s), dtype=np.float64)
        with np.errstate(divide="ignore"):
            out = np.where(np.isinf(li), 0.0, 1.0 / li)
        return out if out.ndim else float(out)

    @property
    def table_coverage_loggap(self) -> float | None:
        """log(1 - t_max) for table profiles; None otherwise."""
        if self.kind != "table":
            return None
        return math.log(1.0 - float(self.table_t[-1]))

    def describe(self) -> str:
        if self.kind == "const":
            return f"const:{self.params[0]:g}"
        if self.kind == "power":
            return f"power:{self.params[0]:g},{self.params[1]:g}"
        if self.kind == "expinv":
            return f"expinv:{self.params[0]:g},{self.params[1]:g}"
        return f"table:{self.table_t.size} rows, t in [{self.table_t[0]:g}, {self.table_t[-1]:g}]"


def const_profile(c: float) -> RadiusProfile:
    return RadiusProfile("const", (float(c),))


def power_profile(c: float, gamma: float) -> RadiusProfile:
    return RadiusProfile("power", (float(c), float(gamma)))


def expinv_profile(c: float, beta: float) -> RadiusProfile:
    return RadiusProfile("expinv", (float(c), float(beta)))


def table_profile(t, phi) -> RadiusProfile:
    return RadiusProfile("table", (), np.asarray(t, dtype=np.float64),
                         np.asarray(phi, dtype=np.float64))


def parse_profile(spec: str) -> RadiusProfile:
    """Parse CLI profile specs: const:c | power:c,gamma | expinv:c,beta | table:<path>."""
    try:
        kind, _, rest = spec.partition(":")
        if kind == "const":
            return const_profile(float(rest))
        if kind == "power":
            c, gamma = (float(x) for x in rest.split(","))
            return power_profile(c, gamma)
        if kind == "expinv":
            c, beta = (float(x) for x in rest.split(","))
            return expinv_profile(c, beta)
        if kind == "table":
            with open(rest, "r", encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.readlines()[1:] if line.strip()]
            if not rows or any(len(row) != 2 for row in rows):
                raise ValidationError(f"{rest}: rows after the header must hold exactly "
                                      "two columns t,phi")
            t, phi = np.array(rows, dtype=np.float64).T
            return table_profile(t, phi)
    except (ValueError, OSError) as exc:
        raise ValidationError(f"bad profile spec {spec!r}: {exc}") from exc
    raise ValidationError(f"bad profile spec {spec!r}")


# ---------------------------------------------------------------------------
# the decay criterion, integral and sum form

@dataclass(frozen=True)
class CriterionReport:
    """Outcome of a criterion evaluation.

    The classification is exact per profile kind: expinv converges (value
    is the whole integral or sum, in closed form), const and power diverge
    (value None), and a table is inconclusive by construction, since its
    rows end before the rim.  blocks and partial_sums show the approach;
    the partial sums, J_max of them in the sum form, stay out of the repr
    and so out of the CLI's artifact.
    """

    kind: str                     # "integral" | "sum"
    classification: str           # convergent | divergent | inconclusive
    value: float | None
    blocks: tuple                 # per-decade partial integrals / block sums
    partial_sums: tuple = field(repr=False)  # cumulative partial sums, or the running integral
    K: float | None
    J_max: int | None
    flags: tuple


# u-decade knots of the integral report: [0, 1] and then one block per decade
_KNOTS = (0.0, 1.0, 10.0, 100.0, 1000.0)
# a table's integrand is smooth between its knots; this rule integrates it
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)
# a table stops at its last row, while the domain builders clamp it there
_TABLE_FLAGS = ("table tail data insufficient: the criterion needs phi up to the rim",
                "builders clamp the table to its last row, so its criterion tail is "
                "divergent (criterion_tail_integral is inf)")


def _block_integrals(profile: RadiusProfile, knots) -> np.ndarray:
    """The criterion integrand 1/log(1/phi(1 - e^-u)) integrated over each
    [knots[k], knots[k + 1]] in u.  With L = log(1/c) it is 1/L for const,
    1/(L + gamma u) for power and e^(-beta u)/c for expinv, each integrated
    in closed form."""
    a, b = np.asarray(knots[:-1]), np.asarray(knots[1:])
    if profile.kind == "const":
        return (b - a) / math.log(1.0 / profile.params[0])
    if profile.kind == "power":
        c, gamma = profile.params
        return np.log1p((b - a) / (math.log(1.0 / c) / gamma + a)) / gamma
    if profile.kind == "expinv":
        # a difference of the integrals from 0 would cancel on far decades
        c, beta = profile.params
        return np.exp(-beta * a) * -np.expm1(-beta * (b - a)) / (c * beta)
    # table: the Gauss rule on pieces split at the table's knots, where the
    # interpolant kinks
    cuts = -np.log1p(-profile.table_t)
    edges = np.union1d(knots, cuts[(cuts > knots[0]) & (cuts < knots[-1])])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    u = mid[:, None] + half[:, None] * _GAUSS_NODES
    pieces = half * (profile.criterion_term_at_loggap(-u) @ _GAUSS_WEIGHTS)
    return np.add.reduceat(pieces, np.searchsorted(edges, knots[:-1]))


def _verdict(profile: RadiusProfile, expinv_value) -> tuple:
    """(classification, value, flags): expinv converges to
    expinv_value(c, beta), const and power diverge, a table cannot decide."""
    if profile.kind == "expinv":
        return "convergent", float(expinv_value(*profile.params)), ()
    if profile.kind == "table":
        return "inconclusive", None, _TABLE_FLAGS
    return "divergent", None, ()


def criterion_integral(profile: RadiusProfile) -> CriterionReport:
    """Integral form of the decay criterion: the integrand over u in
    [0, inf), which is 1/(c beta) for expinv.

    blocks integrate it over the u-decades [1, 10], [10, 100] and
    [100, 1000]; for a table they stop at the decade that holds its last
    row.
    """
    knots = _KNOTS
    if profile.kind == "table":
        knots = [0.0, 1.0]
        while knots[-1] < -profile.table_coverage_loggap:
            knots.append(knots[-1] * 10.0)
    pieces = _block_integrals(profile, knots)
    classification, value, flags = _verdict(profile, lambda c, beta: 1.0 / (c * beta))
    return CriterionReport("integral", classification, value, tuple(pieces[1:].tolist()),
                           tuple(np.cumsum(pieces).tolist()), None, None, flags)


def criterion_tail_integral(profile: RadiusProfile, R: float) -> float:
    """Criterion integrand integrated beyond modulus R, in closed form: a
    scale-free comparison for the mass a truncation discards.

    In u = log(1/(1-t)) the expinv integrand is e^(-beta u)/c, so the tail
    from u0 = log(1/(1-R)) is (1-R)^beta/(c beta).  Every other kind
    diverges, so its tail is inf: const integrates the constant
    1/log(1/c), power the 1/(log(1/c) + gamma u) whose integral grows like
    log u, and a table is clamped to its last row (value_at_gap), so its
    integrand is constant beyond it.
    """
    if not 0.0 < R < 1.0:
        raise ValidationError(f"R must lie in (0, 1), got {R!r}")
    if profile.kind == "expinv":
        c, beta = profile.params
        return (1.0 - R) ** beta / (c * beta)
    return math.inf


def criterion_sum(profile: RadiusProfile, K: float = 2.0, J_max: int = 10_000) -> CriterionReport:
    """Sum form: the sum of 1/log(1/phi(1 - K^-j)) over j >= 1, which is
    1/(c (K^beta - 1)) for expinv.

    partial_sums are the first J_max partial sums, and blocks sum the
    terms j in [10, 100), [100, 1000), ... up to J_max.
    """
    if not 1.0 < K < math.inf:
        raise ValidationError(f"K must be finite and exceed 1, got {K!r}")
    if J_max < 0:
        raise ValidationError("J_max must be >= 0")
    if J_max == 0:
        return CriterionReport("sum", "inconclusive", None, (), (), float(K), 0,
                               ("empty sum",))
    j = np.arange(1, J_max + 1, dtype=np.float64)
    terms = profile.criterion_term_at_loggap(-j * math.log(K))
    edges = [10]
    while edges[-1] < J_max:
        edges.append(min(edges[-1] * 10, J_max))
    blocks = tuple(float(terms[lo:hi].sum()) for lo, hi in zip(edges, edges[1:]))
    classification, value, flags = _verdict(
        profile, lambda c, beta: 1.0 / (c * math.expm1(beta * math.log(K))))
    return CriterionReport("sum", classification, value, blocks, tuple(np.cumsum(terms)),
                           float(K), int(J_max), flags)


# ---------------------------------------------------------------------------
# champagne domains

@dataclass(eq=False)
class ChampagneDomain:
    """Unit disk minus pairwise disjoint closed bubbles.

    The pseudohyperbolic disks D(pseudo_centers, pseudo_radii) are the
    domain: construction realizes them as the Euclidean centers and radii
    the walker needs (pseudo_to_euclidean_arrays, the one realization),
    while the bounds (one-hole formula, barriers) read the pseudo data.
    The builders below check the pseudo disks and their disjointness; a
    domain file stores only the pseudo disks.  Two domains are == when
    their pseudo disks, sources and record fields are.  Instances are
    immutable by convention; the spatial index is built lazily and cached.
    """

    pseudo_centers: np.ndarray     # complex pseudo centers (the source points)
    pseudo_radii: np.ndarray
    source_index: np.ndarray       # indices into the originating sequence
    truncation_R: float
    profile_spec: str
    tail_sum_points: float = 0.0   # union-bound mass of discarded source points
    meta: dict = field(default_factory=dict)
    centers: np.ndarray = field(init=False)   # complex Euclidean centers
    radii: np.ndarray = field(init=False)     # Euclidean radii
    _index: DiskGridIndex | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.pseudo_centers = np.asarray(self.pseudo_centers, dtype=np.complex128)
        self.pseudo_radii = np.asarray(self.pseudo_radii, dtype=np.float64)
        self.source_index = np.asarray(self.source_index, dtype=np.int64)
        n = self.pseudo_centers.size
        if not (self.pseudo_radii.size == n and self.source_index.size == n):
            raise ValidationError("bubble arrays must align")
        self.centers, self.radii = pseudo_to_euclidean_arrays(self.pseudo_centers,
                                                              self.pseudo_radii)
        if n and not np.all(np.abs(self.centers) + self.radii < 1.0):
            bad = int(np.argmax(np.abs(self.centers) + self.radii))
            raise ValidationError(
                f"bubble {bad} (source {self.source_index[bad]}) is not strictly inside the unit disk"
            )

    def __eq__(self, other):
        if not isinstance(other, ChampagneDomain):
            return NotImplemented
        return (all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("pseudo_centers", "pseudo_radii", "source_index"))
                and (self.truncation_R, self.profile_spec, self.tail_sum_points, self.meta)
                == (other.truncation_R, other.profile_spec, other.tail_sum_points, other.meta))

    @property
    def n_bubbles(self) -> int:
        return int(self.centers.size)

    @property
    def circumference_sum(self) -> float:
        return float(2.0 * math.pi * self.radii.sum())

    @property
    def index(self) -> DiskGridIndex:
        if self._index is None:
            self._index = DiskGridIndex(self.centers.real, self.centers.imag, self.radii)
        return self._index

    def build_index(self, n_side: int) -> DiskGridIndex:
        """Build the spatial index with an explicit grid size.

        Pinning one size across the rungs of a truncation ladder (as
        dichotomy-sweep does) couples their walks under a common seed:
        step radii agree wherever the domains agree, so the rungs'
        estimates move together.
        """
        self._index = DiskGridIndex(self.centers.real, self.centers.imag,
                                    self.radii, n_side=n_side)
        return self._index

    def require_interior(self, z, name: str = "z") -> complex:
        """z as a complex, or a ValidationError naming the bubble (the
        nearest, lowest index on ties) that z lies inside or on.

        Exact: one np.hypot scan over every bubble (spatial.nearest_disk).
        It builds no walk grid, so checking a start point costs O(bubbles)
        and not a grid build.  A non-finite z lies outside.
        """
        z = complex(z)
        if not abs(z) < 1.0:
            raise ValidationError(f"{name}={z!r} lies outside the open unit disk")
        if self.n_bubbles:
            d, i = nearest_disk(z.real, z.imag, self.centers.real, self.centers.imag, self.radii)
            if d <= 0.0:
                raise ValidationError(
                    f"{name}={z!r} lies inside or on bubble {i} (source {self.source_index[i]})"
                )
        return z

    def to_json(self) -> str:
        """The text of a domain file (_FILE_KEYS), standard JSON: a
        non-finite meta value is written as the one-key object
        {"float": "inf"} (or "-inf", "nan"), and load decodes that exact
        shape only.  A meta value that is itself a one-key "float" object
        is refused, as load could read it back as a float.  No indent:
        json.dumps then runs its C encoder."""
        for k, v in self.meta.items():
            if isinstance(v, dict) and list(v) == ["float"]:
                raise ValidationError(f"meta[{k!r}] is a one-key 'float' object, which a "
                                      "domain file reserves for non-finite floats")
        return json.dumps({
            "pseudo_cx": self.pseudo_centers.real.tolist(),
            "pseudo_cy": self.pseudo_centers.imag.tolist(),
            "pseudo_radius": self.pseudo_radii.tolist(),
            "source_index": self.source_index.tolist(),
            "truncation_R": float(self.truncation_R),
            "profile_spec": self.profile_spec,
            "tail_sum_points": float(self.tail_sum_points),
            "meta": {k: {"float": repr(float(v))} if isinstance(v, float) and not math.isfinite(v)
                     else v for k, v in self.meta.items()},
        }, allow_nan=False)

    def save(self, path) -> None:
        text = self.to_json()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "ChampagneDomain":
        """The domain of a file that save wrote, built as domain_from_pseudo
        builds one.  A fault of the file raises a ValidationError (an
        OverlapError for bubbles that meet) naming it."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            data = json.loads(text)
            if not (isinstance(data, dict) and sorted(data) == sorted(_FILE_KEYS)):
                raise ValidationError(f"a domain file is a JSON object with the keys "
                                      f"{', '.join(_FILE_KEYS)}; rebuild older files "
                                      "with build-domain")
            cols = [np.array(data[key]) for key in _FILE_KEYS[:4]]
            for key, col, kinds in zip(_FILE_KEYS, cols, ("iuf", "iuf", "iuf", "iu")):
                if col.ndim != 1 or (col.size and col.dtype.kind not in kinds):
                    raise ValidationError(f"{key} must be a list of "
                                          f"{'integers' if kinds == 'iu' else 'numbers'}")
            if len({col.size for col in cols}) != 1:
                raise ValidationError("the columns have unequal lengths")
            if not (type(data["truncation_R"]) in (int, float) and isinstance(data["meta"], dict)
                    and type(data["tail_sum_points"]) in (int, float)
                    and isinstance(data["profile_spec"], str)):
                raise ValidationError("truncation_R and tail_sum_points must be numbers, "
                                      "profile_spec a string and meta an object")
            p_centers = cols[0].astype(np.complex128)
            p_centers.imag = cols[1]
            return _from_pseudo(
                p_centers, cols[2], cols[3], truncation_R=float(data["truncation_R"]),
                profile_spec=data["profile_spec"], tail_sum_points=float(data["tail_sum_points"]),
                meta={k: float(v["float"]) if isinstance(v, dict) and list(v) == ["float"]
                      and v["float"] in ("inf", "-inf", "nan") else v
                      for k, v in data["meta"].items()})
        except OverlapError as exc:
            raise OverlapError(exc.index_a, exc.index_b, exc.gap,
                               message=f"{path}: {exc}") from exc
        except ValueError as exc:   # a ValidationError, or text that is not JSON
            raise ValidationError(f"{path}: {exc}") from exc


# a domain file: the pseudo disks as columns, then the record fields
_FILE_KEYS = ("pseudo_cx", "pseudo_cy", "pseudo_radius", "source_index",
              "truncation_R", "profile_spec", "tail_sum_points", "meta")


def _from_pseudo(pseudo_centers, pseudo_radii, source_index, **record) -> ChampagneDomain:
    """The domain of the given pseudo disks, for the builders and load,
    which need centers in |z| <= 1 - BOUNDARY_MARGIN, radii in (0, 1) and
    disjoint closed bubbles (transport_domain maps disks that passed)."""
    bad = ~((np.abs(pseudo_centers) <= 1.0 - BOUNDARY_MARGIN)
            & (pseudo_radii > 0.0) & (pseudo_radii < 1.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(f"pseudo disk {k} ({complex(pseudo_centers[k])!r}, "
                              f"{float(pseudo_radii[k])!r}) needs |center| <= 1 - "
                              f"{BOUNDARY_MARGIN:g} and radius in (0, 1)")
    dom = ChampagneDomain(pseudo_centers, pseudo_radii, source_index, **record)
    _check_disjoint(dom)
    return dom


def domain_from_pseudo(pseudo_disks, truncation_R: float = 1.0,
                       profile_spec: str = "explicit", meta: dict | None = None,
                       source_index=None) -> ChampagneDomain:
    """Build a domain from a list of explicit pseudohyperbolic bubbles,
    (center, radius) pairs (fixtures)."""
    n = len(pseudo_disks)
    centers, radii = np.array(pseudo_disks, dtype=np.complex128).reshape(n, 2).T
    return _from_pseudo(centers.copy(), radii.real.copy(),
                        np.arange(n) if source_index is None else source_index,
                        truncation_R=float(truncation_R), profile_spec=profile_spec,
                        meta=meta or {})


def _check_disjoint(dom: ChampagneDomain) -> None:
    """Exact pairwise gap check; raises OverlapError naming the sources of
    the most overlapping pair (ties go to the lowest index pair)."""
    gap, a, b = PointIndex(dom.centers).least_gap(dom.radii)
    if gap <= 0.0:
        raise OverlapError(dom.source_index[a], dom.source_index[b], gap)


def build_champagne(seq: PointSequence, profile: RadiusProfile, truncation_R: float,
                    ensure_interior=(0j,)) -> ChampagneDomain:
    """Bubbles D(lambda, phi(|lambda|)) for all |lambda| <= truncation_R.

    Checks pairwise disjointness of the closed Euclidean bubbles and that
    each requested interior point (the walk start, by default 0) stays
    outside every bubble.  Both checks are exact, and neither builds the
    walk grid: the domain builds it when a walk first needs it.  Records
    the union-bound mass of the discarded tail for downstream bounds, and
    in meta the criterion tail integral beyond the truncation
    (criterion_tail_integral, closed form): building a domain runs no
    numerical integration.
    """
    if not 0.0 < truncation_R <= 1.0:
        raise ValidationError(f"truncation_R must lie in (0, 1], got {truncation_R!r}")
    moduli = np.abs(seq.points)
    keep = moduli <= truncation_R + _TIE_SNAP
    lam = seq.points[keep]
    gaps = 1.0 - moduli[keep]
    p_radii = np.asarray(profile.value_at_gap(gaps), dtype=np.float64)
    if lam.size and not np.all((p_radii > 0.0) & (p_radii < 1.0)):
        bad = int(np.argmin(p_radii))
        raise ValidationError(
            f"profile {profile.describe()} gives radius {p_radii[bad]!r} at modulus "
            f"{np.abs(lam[bad]):.6g} (underflow below double precision); lower the truncation"
        )

    # union-bound mass of the discarded tail, in two readings: the exact
    # sum over the materialized points beyond R, and the scale-free
    # criterion integral from R (inf for divergent profiles)
    tail_pts = 0.0
    if np.any(~keep):
        tail_m = moduli[~keep]
        tail_li = np.asarray(profile.log_inv_at_loggap(np.log(1.0 - tail_m)), dtype=np.float64)
        with np.errstate(divide="ignore"):
            tail_pts = float(np.sum(np.where(np.isinf(tail_li), 0.0,
                                             np.log(1.0 / tail_m) / tail_li)))
    tail_int = criterion_tail_integral(profile, truncation_R) if truncation_R < 1.0 else 0.0

    dom = _from_pseudo(
        lam, p_radii, np.nonzero(keep)[0],
        truncation_R=float(truncation_R),
        profile_spec=profile.describe(),
        tail_sum_points=tail_pts,
        meta={"kind": "champagne", "n_source_points": len(seq), "sequence": seq.label,
              "tail_integral_from_R": tail_int},
    )
    for z in ensure_interior:
        dom.require_interior(z, "requested interior point")
    return dom


def build_finitely_connected(seq: PointSequence, z, r: float,
                             delta="one-minus-r") -> ChampagneDomain:
    """Disk minus D(lambda, delta) over lambda with 1/2 < rho(lambda, z) < r.

    delta is a number or "one-minus-r".  Finitely many bubbles by
    construction; the default rule delta = 1 - r shrinks them as the
    annulus widens.  On an overlap, the error reports
    the smallest r for which the default rule is admissible given the
    sequence separation.
    """
    z = require_disk_point(z, "z")
    if not 0.5 < r < 1.0:
        raise ValidationError(f"r must lie in (1/2, 1), got {r!r}")
    if isinstance(delta, str) and delta != "one-minus-r":
        raise ValidationError(f"unknown delta rule {delta!r}")
    d = 1.0 - r if delta == "one-minus-r" else float(delta)
    if not 0.0 < d <= 0.5:
        raise ValidationError(f"delta(r) must lie in (0, 1/2], got {d!r}")
    rho = pseudo_distance_many(z, seq.points)
    keep = (rho > 0.5 + _TIE_SNAP) & (rho < r - _TIE_SNAP)
    lam = seq.points[keep]
    try:
        return _from_pseudo(
            lam, np.full(lam.size, d), np.nonzero(keep)[0],
            truncation_R=float(r),
            profile_spec=f"const:{d:.17g}",
            meta={"kind": "finitely_connected", "z": [z.real, z.imag], "r": float(r),
                  "delta": float(d), "sequence": seq.label},
        )
    except OverlapError as exc:
        sep = separation(seq)
        # disjointness is guaranteed once 2 delta/(1+delta^2) < separation
        d_max = (1.0 - math.sqrt(max(0.0, 1.0 - sep * sep))) / sep if sep > 0 else 0.0
        r_min = 1.0 - d_max
        raise OverlapError(
            exc.index_a, exc.index_b, exc.gap,
            message=(f"bubbles at sources {exc.index_a} and {exc.index_b} overlap for "
                     f"delta={d:g}; the rule delta=1-r is admissible for r >= {r_min:.6g} "
                     f"(sequence separation {sep:.6g})"),
        ) from exc


def transport_domain(dom: ChampagneDomain, a) -> ChampagneDomain:
    """Move the whole domain by the automorphism swapping a and 0.

    Pseudo radii are invariant; pseudo centers map through the
    automorphism.  Disjointness is preserved exactly by the map, so it is
    not re-checked.
    """
    a = require_disk_point(a, "a")
    if a == 0:
        return dom
    meta = dict(dom.meta)
    meta["transported_by"] = [a.real, a.imag]
    return ChampagneDomain(
        mobius_apply_many(a, dom.pseudo_centers), dom.pseudo_radii.copy(),
        dom.source_index.copy(),
        truncation_R=dom.truncation_R, profile_spec=dom.profile_spec,
        tail_sum_points=dom.tail_sum_points,
        meta=meta,
    )
