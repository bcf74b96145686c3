"""Point sequences in the disk: generation, ingestion, and diagnostics.

A PointSequence is an ordered list of distinct points with |z| < 1.  The
diagnostics quantify the two defining properties of a uniformly dense
sequence (separation and covering) together with the Blaschke sum, and
the density curves report the normalized annular sums behind the lower
and upper uniform densities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, read_text
from .hyperbolic import BOUNDARY_MARGIN, require_disk_point
from .spatial import PointIndex
from .streams import derive_seed, mix64

@dataclass(frozen=True)
class PointSequence:
    """Distinct points in the open unit disk, with optional generator metadata."""

    points: np.ndarray
    label: str = ""
    ring_index: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        if pts.ndim != 1 or pts.size == 0:
            raise ValidationError("a PointSequence needs a one-dimensional, non-empty point array")
        moduli = np.abs(pts)
        if not np.all(moduli <= 1.0 - BOUNDARY_MARGIN):
            bad = int(np.argmax(moduli))
            raise ValidationError(
                f"point {bad} ({complex(pts[bad])!r}) is not inside the open unit disk"
            )
        order = np.lexsort((pts.imag, pts.real))
        sorted_pts = pts[order]
        dup = np.nonzero(sorted_pts[1:] == sorted_pts[:-1])[0]
        if dup.size:
            raise ValidationError(
                f"duplicate point {complex(sorted_pts[dup[0]])!r}: "
                "sequences must consist of distinct points"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.ring_index is not None:
            ri = np.asarray(self.ring_index, dtype=np.int64)
            if ri.shape != pts.shape:
                raise ValidationError("ring_index must align with points")
            ri.setflags(write=False)
            object.__setattr__(self, "ring_index", ri)

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.points)))


def generate_ring_lattice(q: float, points_per_ring_scale: float = 1.0,
                          depth: int = 1, seed: int = 0) -> PointSequence:
    """Lattice on rings |z| = 1 - q^j, j = 1..depth.

    Ring j carries ceil(scale * q^-j) equally spaced points, rotated by a
    seed-derived phase.  Consecutive rings have constant pseudohyperbolic
    gap, so the result is separated and, for large enough scale, covers
    the populated region.
    """
    if not 0.0 < q < 1.0:
        raise ValidationError(f"q must lie in (0, 1), got {q!r}")
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth!r}")
    if not 0.0 < points_per_ring_scale < math.inf:
        raise ValidationError(f"scale must be positive and finite, got {points_per_ring_scale!r}")
    # the outermost ring is the one nearest the circle
    if 1.0 - q ** depth > 1.0 - BOUNDARY_MARGIN:
        raise ValidationError(f"ring {depth} is too close to the unit circle; lower the depth")
    # at most scale q^-j + 1 points on ring j, summed before any ring is built
    # and in floating point (math.ceil(inf) raises); 2^31 - 1 disks are the
    # most that DiskGridIndex's int32 candidate lists can index
    bound = points_per_ring_scale * (q ** -depth - 1.0) / (1.0 - q) + depth
    if not bound <= 2 ** 31 - 1:
        raise ValidationError(f"the lattice would have up to {bound:.3g} points, more than "
                              "the 2147483647 a grid index can list; lower the scale or depth")
    points = []
    rings = []
    for j in range(1, depth + 1):
        m = 1.0 - q ** j
        # snap guards against float slop in q**-j just below an integer
        n_j = math.ceil(points_per_ring_scale * q ** (-j) - 1e-9)
        n_j = max(n_j, 1)
        phase = 2.0 * math.pi * ((mix64(derive_seed(seed, "ring-phase", j)) >> 11) * 2.0 ** -53)
        k = np.arange(n_j)
        theta = phase + 2.0 * math.pi * k / n_j
        points.append(m * np.exp(1j * theta))
        rings.append(np.full(n_j, j, dtype=np.int64))
    pts = np.concatenate(points)
    label = f"ring-lattice(q={q:g}, scale={points_per_ring_scale:g}, depth={depth}, seed={seed})"
    return PointSequence(
        points=pts,
        label=label,
        ring_index=np.concatenate(rings),
        meta={"kind": "ring_lattice", "q": float(q), "scale": float(points_per_ring_scale),
              "depth": int(depth), "seed": int(seed)},
    )


def separation(seq: PointSequence) -> float:
    """Infimum of pairwise pseudohyperbolic distances.

    A single-point sequence has vacuous separation 1 (flagged in
    SequenceDiagnostics).
    """
    pts = seq.points
    if pts.size < 2:
        return 1.0
    # rho(z, w) and rho(w, z) are one double, so the least over each point's
    # nearest other point is the value of an upper-triangle scan
    return float(PointIndex(pts).pseudo_nearest(pts, others=True).min())


@dataclass(frozen=True)
class BlaschkeReport:
    value: float
    classified_divergent: bool
    threshold: float
    partial_by_depth: list | None = None  # cumulative sums per ring for generated lattices


# a Blaschke sum at least this large is classified divergent
_DIVERGENCE_THRESHOLD = 20.0


def blaschke_sum(seq: PointSequence) -> BlaschkeReport:
    """Sum of (1 - |lambda|), with per-depth partial sums when the sequence
    carries ring metadata so divergence trends stay visible."""
    gaps = 1.0 - np.abs(seq.points)
    total = float(gaps.sum())
    partial = None
    if seq.ring_index is not None:
        depths = np.unique(seq.ring_index)
        acc = 0.0
        partial = []
        for d in depths:
            acc += float(gaps[seq.ring_index == d].sum())
            partial.append((int(d), acc))
    return BlaschkeReport(
        value=total,
        classified_divergent=bool(total >= _DIVERGENCE_THRESHOLD),
        threshold=_DIVERGENCE_THRESHOLD,
        partial_by_depth=partial,
    )


@dataclass(frozen=True)
class SequenceDiagnostics:
    separation: float
    separation_vacuous: bool
    blaschke: BlaschkeReport
    n_points: int
    max_modulus: float


def diagnose(seq: PointSequence) -> SequenceDiagnostics:
    return SequenceDiagnostics(
        separation=separation(seq),
        separation_vacuous=len(seq) < 2,
        blaschke=blaschke_sum(seq),
        n_points=len(seq),
        max_modulus=seq.max_modulus,
    )


# the probe lattice's ring ratio and the seed of its ring phases: fixed, so
# a default probe set depends only on the modulus and density asked for
_PROBE_Q = 0.5
_PROBE_SEED = 987


def probe_lattice(max_modulus: float, density: float = 4.0, rim: bool = True) -> np.ndarray:
    """Pseudohyperbolically equidistributed probe points covering
    {|z| <= max_modulus}, including the origin and (optionally) the rim:
    the ring lattice of q = _PROBE_Q at the given density, with ring
    phases drawn from _PROBE_SEED."""
    if not 0.0 < max_modulus <= 1.0 - BOUNDARY_MARGIN:
        raise ValidationError("max_modulus must lie in (0, 1)")
    if not 0.0 < density < math.inf:
        raise ValidationError(f"grid density must be positive and finite, got {density!r}")
    depth = max(1, math.ceil(math.log(1.0 - max_modulus) / math.log(_PROBE_Q)))
    lattice = generate_ring_lattice(_PROBE_Q, points_per_ring_scale=density, depth=depth,
                                    seed=derive_seed(_PROBE_SEED, "probe"))
    pts = lattice.points[np.abs(lattice.points) <= max_modulus]
    parts = [np.array([0.0 + 0.0j]), pts]
    if rim:
        m = max_modulus
        n_rim = max(8, math.ceil(2.0 * math.pi * density * m / (1.0 - m * m)))
        theta = 2.0 * math.pi * np.arange(n_rim) / n_rim
        parts.append(m * np.exp(1j * theta))
    return np.concatenate(parts)


def require_probe_points(points) -> np.ndarray:
    """A given probe set as a one-dimensional complex array: refused when
    empty, or naming its first point outside the open disk (NaN too)."""
    probes = np.asarray(points, dtype=np.complex128).ravel()
    if probes.size == 0:
        raise ValidationError("the probe set is empty")
    for z in probes[~(np.abs(probes) <= 1.0 - BOUNDARY_MARGIN)][:1]:
        require_disk_point(z, "probe")
    return probes


def covering_radius(seq: PointSequence, probe_region_modulus: float,
                    grid_density: float = 4.0, probe_points: np.ndarray | None = None) -> float:
    """Worst distance from the probed region to the sequence:
    max over probes of min over lambda of rho(z, lambda).

    The sequence is certified uniformly dense on the probed region when
    this stays below 1 with margin.
    """
    if probe_points is None:
        probes = probe_lattice(probe_region_modulus, density=grid_density)
    else:
        probes = require_probe_points(probe_points)
    return float(PointIndex(seq.points).pseudo_nearest(probes).max())


@dataclass(frozen=True)
class DensityEstimate:
    """Normalized annular sums over a probe set, per radius.

    Curves are reported as data over r; the r -> 1 limit is never
    extrapolated.  `truncation_dominated[i]` marks radii whose annulus
    reaches beyond the populated region of the sequence.
    """

    r_values: tuple
    lower_curve: tuple | None
    upper_curve: tuple | None
    grid_spec: str
    truncation_dominated: tuple
    n_probes: int


def _annular_sums(pts: np.ndarray, probes: np.ndarray, r_values: np.ndarray) -> np.ndarray:
    """sum_{rho(lambda, z) <= r} (1 - rho) for each probe and radius."""
    # ties at rho == r are included (<=); snapped by 1e-12 so whole
    # lattice rings land inside despite ulp noise on their moduli
    return PointIndex(pts).pseudo_ball_sums(probes, r_values + 1e-12)


def uniform_density(seq: PointSequence, r_values, grid_density: float = 4.0,
                    mode: str = "lower", probe_points: np.ndarray | None = None) -> DensityEstimate:
    """Per-r curve of sum_{rho(lambda,z)<=r}(1-rho(lambda,z)) / log(1/(1-r)),
    minimized (lower) or maximized (upper) over the probe set."""
    if mode not in ("lower", "upper", "both"):
        raise ValidationError(f"mode must be lower, upper or both, got {mode!r}")
    r = np.asarray(r_values, dtype=np.float64)
    if r.ndim != 1 or r.size == 0 or not np.all((r > 0.0) & (r < 1.0)):
        raise ValidationError("r_values must be a non-empty list inside (0, 1)")
    if probe_points is None:
        max_mod = seq.max_modulus
        probes = np.concatenate([probe_lattice(max_mod, density=grid_density),
                                 seq.points])
        grid_spec = f"ring probe lattice at density {grid_density:g} over |z|<={max_mod:.6g} plus the sequence itself"
    else:
        probes = require_probe_points(probe_points)
        grid_spec = f"user probe set ({probes.size} points)"
    sums = _annular_sums(seq.points, probes, r)
    norm = np.log(1.0 / (1.0 - r))
    curves = sums / norm[None, :]
    lower = tuple(float(v) for v in curves.min(axis=0)) if mode in ("lower", "both") else None
    upper = tuple(float(v) for v in curves.max(axis=0)) if mode in ("upper", "both") else None

    # Annulus reaching past the outermost populated modulus => undercount.
    max_mod = seq.max_modulus
    probe_mod = np.abs(probes)
    flags = []
    for rv in r:
        reach = (probe_mod + rv) / (1.0 + probe_mod * rv)
        flags.append(bool(np.any(reach > max_mod)))
    return DensityEstimate(
        r_values=tuple(float(v) for v in r),
        lower_curve=lower,
        upper_curve=upper,
        grid_spec=grid_spec,
        truncation_dominated=tuple(flags),
        n_probes=int(probes.size),
    )


# ---------------------------------------------------------------------------
# ingestion / emission: CSV with a re,im header, or a JSON array of pairs

def save_sequence(seq: PointSequence, path) -> None:
    path = str(path)
    if path.endswith(".csv"):
        lines = ["re,im"]
        lines += [f"{z.real:.17g},{z.imag:.17g}" for z in seq.points]
        text = "\n".join(lines) + "\n"
    elif path.endswith(".json"):
        text = json.dumps([[float(f"{z.real:.17g}"), float(f"{z.imag:.17g}")] for z in seq.points])
    else:
        raise ValidationError(f"unsupported sequence format for {path!r} (use .csv or .json)")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _point(path, where: str, entry) -> complex:
    """One entry of a sequence file, which must be exactly two reals re, im."""
    if isinstance(entry, list) and len(entry) == 2:
        try:
            return complex(float(entry[0]), float(entry[1]))
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{path}: {where} is not two reals re, im: {entry!r}")


def load_sequence(path, label: str | None = None) -> PointSequence:
    path = str(path)
    if path.endswith(".csv"):
        header, *lines = read_text(path).split("\n")
        if header.strip().replace(" ", "") != "re,im":
            raise ValidationError(f"{path}: expected header 're,im', got {header.strip()!r}")
        vals = [_point(path, f"line {n}", line.strip().split(","))
                for n, line in enumerate(lines, start=2) if line.strip()]
    elif path.endswith(".json"):
        try:
            data = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        if not isinstance(data, list):
            raise ValidationError(f"{path}: expected a JSON array of [re, im] pairs")
        vals = [_point(path, f"entry {k}", entry) for k, entry in enumerate(data)]
    else:
        raise ValidationError(f"unsupported sequence format for {path!r} (use .csv or .json)")
    if not vals:
        raise ValidationError(f"{path}: empty sequence")
    return PointSequence(points=np.array(vals), label=label or path)
