"""Harmonic-measure densities over finitely connected annulus domains.

Part (II) of the paper describes sampling and interpolating sequences by
a lower and an upper density: as r -> 1, the infimum and the supremum
over the same points z of the disk of a harmonic-measure quantity at z.
That quantity is the harmonic measure at z of the outer boundary of the
pseudohyperbolic disk D(z, r), with the bubbles around the sequence
points in the annulus 1/2 < rho(lambda, z) < r removed.  The uniform
counterparts are the normalized annular sums of
`sequences.uniform_density`.

What is estimated here, for each radius r and probe z:

* the domain is the unit disk minus the bubbles D(lambda, delta) with
  1/2 < rho(lambda, z) < r (`build_finitely_connected`), with
  delta = 1 - r.  The outer boundary is the unit circle, so the annulus
  r < rho < 1 stays empty, where the paper's outer boundary is the
  circle rho(., z) = r;
* `transport_domain` moves z to the origin by the automorphism swapping
  z and 0, and walk-on-spheres estimates the exterior harmonic measure
  omega there;
* the value recorded is log(1/omega), and it is not divided by
  log(1/(1-r)) again: the rule delta = 1 - r already carries that
  normalization.  A bubble D(lambda, delta) alone has exterior measure
  log rho / log delta = log(1/rho) / log(1/(1-r)) at z, with
  rho = rho(lambda, z); these are the `sandwich_bounds` components of the
  probe domain, and their sum is the normalized annular sum of the uniform
  curve with log(1/rho) in place of 1 - rho and the points with
  rho <= 1/2 left out.  Both differences are open choices that only the
  paper's text settles: the weight 1 - rho against log(1/rho), and
  whether rho <= 1/2 is counted.  The ratios of the two curves are
  reported as data.

Both curves range over one probe set (`ProbeSpec.resolve`), and each
probe is estimated once per r: the lower curve is the infimum of those
values, the upper curve their supremum.  Curves are reported as data
over r; no limit is extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domains import build_finitely_connected, transport_domain
from .errors import ValidationError
from .sequences import PointSequence, probe_lattice, require_probe_points, uniform_density
from .streams import derive_seed
from .walker import MeasureEstimate, _map_jobs, estimate_measure

_UNBOUNDED = math.inf


@dataclass(frozen=True)
class McParams:
    """Walk budget for the per-probe estimates.

    The pilot run sizes the main run so log(1/omega) keeps a bounded
    relative error: n scales like 1/omega, capped at walk_cap.  `threads`
    is a count of worker threads (0: one per core); the probe estimates
    are spread over them, each run by one worker.
    """

    n_walks: int = 20_000
    epsilon: float | None = None
    seed: int = 0
    threads: int = 1
    pilot_walks: int = 1000
    walk_cap: int = 10_000_000


@dataclass(frozen=True)
class ProbeSpec:
    """The one probe set both curves range over.

    Explicit `points` are used as given.  Otherwise the set is the probe
    lattice of |z| <= min(0.75, max modulus) together with the sequence
    points in that disk, thinned to at most `max_probes`.
    """

    points: tuple | None = None
    max_probes: int = 16

    def __post_init__(self):
        if self.max_probes < 1:
            raise ValidationError(f"max_probes must be >= 1, got {self.max_probes!r}")

    def resolve(self, seq: PointSequence) -> np.ndarray:
        if self.points is not None:
            return np.asarray(self.points, dtype=np.complex128)
        m = min(0.75, seq.max_modulus)
        inside = seq.points[np.abs(seq.points) <= m]
        probes = np.unique(np.concatenate([probe_lattice(m, density=2.0, rim=False), inside]))
        if probes.size > self.max_probes:
            # deterministic thinning: evenly strided over np.unique's
            # lexicographic (real, imag) order
            stride = probes.size / self.max_probes
            probes = probes[(np.arange(self.max_probes) * stride).astype(np.int64)]
        return probes

    def describe(self) -> str:
        if self.points is not None:
            return f"explicit probes ({len(self.points)})"
        return (f"probe lattice density 2 and sequence points in |z| <= 0.75 "
                f"(capped at {self.max_probes})")


@dataclass(frozen=True)
class ProbeResult:
    probe: complex
    n_bubbles: int
    estimate: MeasureEstimate | None    # None when the annulus is empty (omega = 1)
    value: float                        # log(1/omega-hat); inf when omega-hat == 0
    ci_low: float                       # CI for the value, through the log
    ci_high: float
    n_walks_used: int
    flags: tuple


@dataclass(frozen=True)
class HarmonicDensityCurve:
    mode: str
    r_values: tuple
    curve: tuple                        # inf (lower) / sup (upper) per r
    per_r: tuple                        # tuple of tuples of ProbeResult
    grid_spec: str
    flags: tuple


def _probe_estimate(seq, z, r, mc: McParams, tag) -> ProbeResult:
    dom = transport_domain(build_finitely_connected(seq, z, r), z)
    if dom.n_bubbles == 0:
        return ProbeResult(probe=z, n_bubbles=0, estimate=None, value=0.0,
                           ci_low=0.0, ci_high=0.0, n_walks_used=0,
                           flags=("empty annulus: omega = 1 exactly",))
    flags = []
    pilot = estimate_measure(dom, 0j, target="exterior", n_walks=mc.pilot_walks,
                             epsilon=mc.epsilon, seed=derive_seed(mc.seed, "pilot", *tag),
                             threads=mc.threads)
    p_hat = max(pilot.estimate, 1.0 / mc.pilot_walks)
    n_eff = int(min(mc.walk_cap, max(mc.n_walks, math.ceil(mc.n_walks / p_hat / 10.0))))
    est = estimate_measure(dom, 0j, target="exterior", n_walks=n_eff,
                           epsilon=mc.epsilon, seed=derive_seed(mc.seed, "main", *tag),
                           threads=mc.threads)
    if est.estimate == 0.0:
        flags.append("no exterior hits at this walk budget: value unbounded")
        value, lo, hi = _UNBOUNDED, math.log(1.0 / est.ci_high), _UNBOUNDED
    else:
        value = math.log(1.0 / est.estimate)
        lo = math.log(1.0 / est.ci_high)
        hi = math.log(1.0 / est.ci_low) if est.ci_low > 0.0 else _UNBOUNDED
    return ProbeResult(probe=z, n_bubbles=dom.n_bubbles, estimate=est, value=value,
                       ci_low=lo, ci_high=hi, n_walks_used=n_eff, flags=tuple(flags))


def _extreme_curve(mode: str, r_values: tuple, per_r: tuple,
                   grid_spec: str) -> HarmonicDensityCurve:
    """Inf (lower) or sup (upper) over the probes of each r.

    Unbounded probes (no exterior hits) are excluded from the infimum and
    enter the supremum as +inf with a warning flag.
    """
    curve = []
    flags = []
    for rv, results in zip(r_values, per_r):
        values = [p.value for p in results]
        if mode == "lower":
            finite = [v for v in values if v != _UNBOUNDED]
            if not finite:
                flags.append(f"r={rv:g}: every probe unbounded; infimum undefined")
                curve.append(_UNBOUNDED)
            else:
                if len(finite) < len(values):
                    flags.append(f"r={rv:g}: unbounded probes excluded from the infimum")
                curve.append(min(finite))
        else:
            if any(v == _UNBOUNDED for v in values):
                flags.append(f"r={rv:g}: supremum saturated by an unbounded probe")
            curve.append(max(values))
    return HarmonicDensityCurve(mode=mode, r_values=r_values, curve=tuple(curve),
                                per_r=per_r, grid_spec=grid_spec, flags=tuple(flags))


def harmonic_density_curve(seq: PointSequence, r_values, mode: str,
                           probe_spec: ProbeSpec | None = None,
                           mc: McParams | None = None) -> HarmonicDensityCurve:
    """Curve of inf/sup over probes of log(1/omega-hat(z, exterior))."""
    if mode not in ("lower", "upper"):
        raise ValidationError(f"mode must be lower or upper, got {mode!r}")
    probe_spec = probe_spec or ProbeSpec()
    mc = mc or McParams()
    r = np.asarray(r_values, dtype=np.float64)
    if r.ndim != 1 or r.size == 0 or not np.all((r > 0.5) & (r < 1.0)):
        raise ValidationError("r_values must lie in (1/2, 1)")
    probes = require_probe_points(probe_spec.resolve(seq))
    # one job per (ri, pi), each estimating on its own worker thread alone;
    # the derive_seed tags keep every estimate as it is serially
    one = replace(mc, threads=1)

    def job(j):
        ri, pi = divmod(j, probes.size)
        return _probe_estimate(seq, complex(probes[pi]), float(r[ri]), one, (ri, pi))

    done = _map_jobs(job, r.size * probes.size, mc.threads)
    per_r = tuple(tuple(done[ri * probes.size:(ri + 1) * probes.size])
                  for ri in range(r.size))
    return _extreme_curve(mode, tuple(float(v) for v in r), per_r, probe_spec.describe())


@dataclass(frozen=True)
class Theorem2Report:
    """Side-by-side uniform vs harmonic density curves at matched radii."""

    r_values: tuple
    uniform_lower: tuple
    uniform_upper: tuple
    harmonic_lower: tuple
    harmonic_upper: tuple
    ratio_lower: tuple        # harmonic / uniform, None where undefined
    ratio_upper: tuple
    trend: dict               # per curve: increasing | decreasing | mixed
    low_confidence: bool
    lower_detail: HarmonicDensityCurve = field(repr=False)
    upper_detail: HarmonicDensityCurve = field(repr=False)


def _trend(curve) -> str:
    diffs = [b - a for a, b in zip(curve, curve[1:]) if math.isfinite(a) and math.isfinite(b)]
    if not diffs:
        return "flat"
    if all(d >= 0 for d in diffs):
        return "increasing"
    if all(d <= 0 for d in diffs):
        return "decreasing"
    return "mixed"


def theorem2_report(seq: PointSequence, r_values, probe_spec: ProbeSpec | None = None,
                    mc: McParams | None = None) -> Theorem2Report:
    """Compare the normalized annular sums with the harmonic curves at the
    same radii.  All four curves range over one probe set, and each probe
    is estimated once per r.  Ratios and trends only; no limit is
    asserted."""
    h_lo = harmonic_density_curve(seq, r_values, "lower", probe_spec, mc)
    h_up = _extreme_curve("upper", h_lo.r_values, h_lo.per_r, h_lo.grid_spec)
    probes = np.array([p.probe for p in h_lo.per_r[0]], dtype=np.complex128)
    ud = uniform_density(seq, r_values, mode="both", probe_points=probes)

    def ratios(h, u):
        out = []
        for hv, uv in zip(h, u):
            out.append(hv / uv if (uv > 0.0 and math.isfinite(hv)) else None)
        return tuple(out)

    # degenerate or truncated data: annuli reaching past the populated
    # moduli, unbounded probes, or near-zero density
    low_conf = (any(ud.truncation_dominated)
                or any(v < 0.05 for v in ud.lower_curve)
                or bool(h_lo.flags) or bool(h_up.flags))
    return Theorem2Report(
        r_values=h_lo.r_values,
        uniform_lower=ud.lower_curve,
        uniform_upper=ud.upper_curve,
        harmonic_lower=h_lo.curve,
        harmonic_upper=h_up.curve,
        ratio_lower=ratios(h_lo.curve, ud.lower_curve),
        ratio_upper=ratios(h_up.curve, ud.upper_curve),
        trend={
            "uniform_lower": _trend(ud.lower_curve),
            "uniform_upper": _trend(ud.upper_curve),
            "harmonic_lower": _trend(h_lo.curve),
            "harmonic_upper": _trend(h_up.curve),
        },
        low_confidence=low_conf,
        lower_detail=h_lo,
        upper_detail=h_up,
    )
