"""Harmonic-measure densities over finitely connected annulus domains.

For each radius r and probe z, build_finitely_connected removes the
bubbles D(lambda, 1-r) around the sequence points with
1/2 < rho(lambda, z) < r, and transport_domain moves the probe to the
origin by the automorphism swapping z and 0.  The exterior harmonic
measure there is estimated by walk-on-spheres and recorded as
log(1/omega).  The lower curve takes the infimum over a probe grid, the
upper curve the supremum over the sequence points themselves.
Curves are reported as data over r; no limit is extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import build_finitely_connected, resolve_delta_rule, transport_domain
from .errors import ValidationError
from .hyperbolic import require_disk_point
from .sequences import PointSequence, probe_lattice, uniform_density
from .streams import derive_seed
from .walker import MeasureEstimate, estimate_measure

_UNBOUNDED = math.inf


@dataclass(frozen=True)
class McParams:
    """Walk budget for the per-probe estimates.

    The pilot run sizes the main run so log(1/omega) keeps a bounded
    relative error: n scales like 1/omega, capped at walk_cap.
    """

    n_walks: int = 20_000
    epsilon: float | None = None
    seed: int = 0
    threads: int = 1
    pilot_walks: int = 1000
    walk_cap: int = 10_000_000


@dataclass(frozen=True)
class ProbeSpec:
    points: tuple | None = None     # explicit probes for the lower mode
    grid_density: float = 2.0
    max_probes: int = 16
    include_origin: bool = True

    def resolve(self, seq: PointSequence, mode: str, r_max: float) -> np.ndarray:
        if mode == "lower":
            if self.points is not None:
                return np.asarray(self.points, dtype=np.complex128)
            pts = [probe_lattice(min(0.75, seq.max_modulus), density=self.grid_density,
                                 rim=False)]
            if self.include_origin:
                pts.append(np.array([0.0 + 0.0j]))
            probes = np.unique(np.concatenate(pts))
        else:
            probes = seq.points
        if probes.size > self.max_probes:
            # deterministic thinning: evenly strided after a canonical sort
            order = np.lexsort((probes.imag, probes.real))
            stride = probes.size / self.max_probes
            pick = (np.arange(self.max_probes) * stride).astype(np.int64)
            probes = probes[order][pick]
        return probes

    def describe(self, mode: str) -> str:
        if mode == "upper":
            return f"sequence points (capped at {self.max_probes})"
        if self.points is not None:
            return f"explicit probes ({len(self.points)})"
        return f"probe lattice density {self.grid_density:g} (capped at {self.max_probes})"


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
    delta_rule: str
    grid_spec: str
    flags: tuple


def _probe_estimate(seq, z, r, delta, mc: McParams, tag) -> ProbeResult:
    dom = transport_domain(build_finitely_connected(seq, z, r, delta), z)
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


def harmonic_density_curve(seq: PointSequence, r_values, mode: str,
                           probe_spec: ProbeSpec | None = None,
                           mc: McParams | None = None,
                           delta="one-minus-r") -> HarmonicDensityCurve:
    """Curve of inf/sup over probes of log(1/omega-hat(z, exterior)).

    Unbounded probes (no exterior hits) are excluded from the infimum and
    enter the supremum as +inf with a warning flag.
    """
    if mode not in ("lower", "upper"):
        raise ValidationError(f"mode must be lower or upper, got {mode!r}")
    probe_spec = probe_spec or ProbeSpec()
    mc = mc or McParams()
    r = np.asarray(r_values, dtype=np.float64)
    if r.ndim != 1 or r.size == 0 or not np.all((r > 0.5) & (r < 1.0)):
        raise ValidationError("r_values must lie in (1/2, 1)")
    probes = probe_spec.resolve(seq, mode, float(r.max()))
    for z in probes:
        require_disk_point(z, "probe")

    curve = []
    per_r = []
    all_flags = []
    for ri, rv in enumerate(r):
        d = resolve_delta_rule(delta, float(rv))
        results = [_probe_estimate(seq, complex(z), float(rv), d, mc, (ri, pi))
                   for pi, z in enumerate(probes)]
        values = [p.value for p in results]
        if mode == "lower":
            finite = [v for v in values if v != _UNBOUNDED]
            if not finite:
                all_flags.append(f"r={rv:g}: every probe unbounded; infimum undefined")
                curve.append(_UNBOUNDED)
            else:
                if len(finite) < len(values):
                    all_flags.append(f"r={rv:g}: unbounded probes excluded from the infimum")
                curve.append(min(finite))
        else:
            if any(v == _UNBOUNDED for v in values):
                all_flags.append(f"r={rv:g}: supremum saturated by an unbounded probe")
            curve.append(max(values))
        per_r.append(tuple(results))
    return HarmonicDensityCurve(
        mode=mode,
        r_values=tuple(float(v) for v in r),
        curve=tuple(curve),
        per_r=tuple(per_r),
        delta_rule=str(delta),
        grid_spec=probe_spec.describe(mode),
        flags=tuple(all_flags),
    )


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
    same radii, on the same probes.  Ratios and trends only; no limit is
    asserted."""
    probe_spec = probe_spec or ProbeSpec()
    mc = mc or McParams()
    h_lo = harmonic_density_curve(seq, r_values, "lower", probe_spec, mc)
    h_up = harmonic_density_curve(seq, r_values, "upper", probe_spec, mc)
    lower_probes = probe_spec.resolve(seq, "lower", max(r_values))
    upper_probes = probe_spec.resolve(seq, "upper", max(r_values))
    u_lo = uniform_density(seq, r_values, mode="lower", probe_points=lower_probes)
    u_up = uniform_density(seq, r_values, mode="upper", probe_points=upper_probes)

    def ratios(h, u):
        out = []
        for hv, uv in zip(h, u):
            out.append(hv / uv if (uv > 0.0 and math.isfinite(hv)) else None)
        return tuple(out)

    # degenerate or truncated data: annuli reaching past the populated
    # moduli, unbounded probes, or near-zero density
    low_conf = (any(u_lo.truncation_dominated) or any(u_up.truncation_dominated)
                or any(v < 0.05 for v in u_lo.lower_curve)
                or bool(h_lo.flags) or bool(h_up.flags))
    return Theorem2Report(
        r_values=tuple(float(v) for v in r_values),
        uniform_lower=u_lo.lower_curve,
        uniform_upper=u_up.upper_curve,
        harmonic_lower=h_lo.curve,
        harmonic_upper=h_up.curve,
        ratio_lower=ratios(h_lo.curve, u_lo.lower_curve),
        ratio_upper=ratios(h_up.curve, u_up.upper_curve),
        trend={
            "uniform_lower": _trend(u_lo.lower_curve),
            "uniform_upper": _trend(u_up.upper_curve),
            "harmonic_lower": _trend(h_lo.curve),
            "harmonic_upper": _trend(h_up.curve),
        },
        low_confidence=low_conf,
        lower_detail=h_lo,
        upper_detail=h_up,
    )
