"""Walk-on-spheres estimation of harmonic measure on champagne domains.

The sampler is exact in distribution for the first-exit component of
Brownian motion: each jump lands uniformly on a circle contained in the
domain, and discretization enters only through the epsilon-shell at
termination.  Step radii come from the grid index: exact near the
bubbles, conservative lower bounds elsewhere (any radius not exceeding
the true boundary distance keeps the exit law exact, by the strong
Markov property).

The kernel is compiled C (_walk.c, which _native builds into one library
with the grid build the first time a grid index is built): it keeps a few
walks of a range in flight and advances them in turn, one step each, so
that the core overlaps their chains of dependent loads; a walk that exits
hands its place to the next unstarted walk of the range.
Each step (1) classifies: a walk within the shell exits at the nearest
component; (2) resolves point-like encounters: a walk within 1e-9 of a
bubble too small to resolve is absorbed with the exact annulus hitting
probability or moved to the annulus' outer circle; (3) otherwise jumps.
A direction, of a jump or of an encounter's exit, is (cos 2 pi u, sin 2 pi u)
of one uniform u without libm trig: the nearest quarter turn q = round(4u)
and the remainder r = u - q/4, both exact, fixed Taylor polynomials of
sin 2 pi r and cos 2 pi r, then q's swap and negation of the pair, within
3 * 2^-53 of the exact values.  It depends on no platform's sin and cos,
and it is built with -ffp-contract=off, since a fused multiply-add in the
polynomials would change its last bits.
`threads` is a worker count: the walks are split into contiguous ranges,
one per worker thread (the kernel runs with the GIL released).

Determinism contract: walk w consumes uniforms u(seed, w, t), t = 0, 1,
..., from counter-based streams: one per jump, and two per encounter
(counters t and t+1: the survival draw, then the exit angle).  Estimates
are therefore bit-identical for fixed (seed, n_walks, epsilon, domain)
regardless of batching or worker count.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import _native
from .barriers import _charge_matrix
from .domains import ChampagneDomain
from .errors import ValidationError, WalkBudgetError
from .hyperbolic import require_disk_point
from .spatial import _L, nearest_disk
from .streams import _U64, derive_seed

# the walks that justify one more range: n walks are split into at most
# ceil(n / _CHUNK) ranges, so a few walks run on the calling thread alone;
# results do not depend on it (each walk reads only its own stream)
_CHUNK = 8192
_TWO_PI = 2.0 * math.pi
_WILSON_Z = 1.959963984540054  # 97.5% normal quantile, for 95% intervals

_CODE_EXTERIOR = 0

# Termination floor: below this step size the jump may no longer move the
# coordinates of an O(1) position (the float lattice quantum is ~2.2e-16),
# so the shell radius is effectively floored here.  Bias O(floor / gap).
_STEP_FLOOR = 2.0 ** -50

# Walks closer than this to a point-like bubble resolve the encounter with
# the exact annulus hitting probability instead of shrinking steps further.
_ENC_TRIGGER = 1e-9


def wilson_interval(successes: int, n: int):
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        return 0.0, 1.0
    phat = successes / n
    z2 = _WILSON_Z * _WILSON_Z
    denom = 1.0 + z2 / n
    center = phat + z2 / (2.0 * n)
    half = _WILSON_Z * math.sqrt(max(0.0, phat * (1.0 - phat) / n + z2 / (4.0 * n * n)))
    return max(0.0, (center - half) / denom), min(1.0, (center + half) / denom)


def one_hole_exact(zeta, s: float) -> float:
    """Harmonic measure at 0 of the boundary of the single pseudohyperbolic
    bubble D(zeta, s) inside the disk: log|zeta| / log s."""
    zeta = require_disk_point(zeta, "zeta")
    m = abs(zeta)
    if not 0.0 < s < 1.0:
        raise ValidationError(f"s must lie in (0, 1), got {s!r}")
    if m <= s:
        raise ValidationError(
            f"the closed bubble D(zeta, s) contains 0 (|zeta|={m!r} <= s={s!r})"
        )
    return math.log(m) / math.log(s)


@dataclass
class MeasureEstimate:
    """Monte Carlo estimate of the harmonic measure of a target component set.

    Every walk ends on the unit circle or a bubble, so `hits_truncation` is
    always 0; it stays for the canonical JSON, the schema and the tracer."""

    n_walks: int
    hits_exterior: int
    hits_per_bubble: dict
    hits_truncation: int
    estimate: float
    ci_low: float
    ci_high: float
    epsilon: float
    seed: int
    target: str
    steps_total: int
    steps_mean: float
    steps_max: int
    steps_hist: tuple        # hist[0]: steps==0; hist[k]: steps in [2^(k-1), 2^k)
    path_length_mean: float
    wall_time: float = field(default=0.0, compare=False)

    @property
    def sigma(self) -> float:
        """Binomial standard error of the estimate."""
        p = self.estimate
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.n_walks) if self.n_walks else 0.0

    def canonical_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if not f.compare:
                continue  # wall_time is volatile, not part of the result identity
            v = getattr(self, f.name)
            if isinstance(v, dict):
                v = {str(k): v[k] for k in sorted(v)}
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True)


def _resolve_epsilon(domain: ChampagneDomain, epsilon):
    idx = domain.index
    if epsilon is None:
        if domain.n_bubbles:
            epsilon = min(1e-3 * idx.r_min, 0.5 * idx.h)
        else:
            epsilon = 1e-6
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon!r}")
    if domain.n_bubbles:
        if epsilon >= idx.r_min:
            raise ValidationError(
                f"epsilon={epsilon:g} must stay below the smallest bubble radius {idx.r_min:g}"
            )
        if epsilon > idx.h:
            raise ValidationError(
                f"epsilon={epsilon:g} exceeds the index cell size {idx.h:g}; "
                "pass a smaller epsilon (termination would lose exactness)"
            )
    return epsilon


def _walk_chunk(domain: ChampagneDomain, z0: complex, eps: float, seed: int,
                w0: int, w1: int, max_steps: int, r_out: float):
    """Run walks [w0, w1) inside the absorbing circle |z| = r_out <= 1;
    returns (exit_code, steps, path_length, exit_x, exit_y).

    `steps` counts uniform draws: one per jump, two per analytically
    resolved point-like encounter (survival Bernoulli plus exit angle).
    A walk that draws max_steps uniforms fails; the whole range still
    runs, and the WalkBudgetError counts the failed walks and gives where
    the lowest-index one stopped.
    """
    idx = domain.index
    n = w1 - w0
    exit_code = np.empty(n, dtype=np.int64)
    exit_steps = np.empty(n, dtype=np.int64)
    exit_path = np.empty(n)
    exit_x = np.empty(n)
    exit_y = np.empty(n)
    stuck = np.zeros(2)
    n_failed = _native.library().walk_range(
        idx.cx, idx.cy, idx.radii, idx.cell_start, idx.cell_items, idx.clearance,
        idx.pointlike.view(np.uint8), idx.enc_clearance, idx.enc_modulus,
        idx.n_side, _L, idx.inv_h, idx.h,
        z0.real, z0.imag, max(eps, _STEP_FLOOR), _ENC_TRIGGER, r_out,
        int(seed) & _U64, w0, w1, max_steps,
        exit_code, exit_steps, exit_path, exit_x, exit_y, stuck)
    if n_failed:
        raise WalkBudgetError(n_failed, max_steps, complex(stuck[0], stuck[1]))
    return exit_code, exit_steps, exit_path, exit_x, exit_y


def _worker_count(threads: int) -> int:
    """The number of worker threads `threads` asks for (0: one per core)."""
    if threads < 0:
        raise ValidationError(f"threads must be >= 0 (0 means one per core), got {threads!r}")
    return threads or os.cpu_count() or 1


def _map_jobs(job, n_jobs: int, threads: int) -> list:
    """[job(0), ..., job(n_jobs - 1)], spread over up to `threads` worker
    threads (0: one per core).

    The compiled calls (walks, grid builds) release the GIL, so the
    threads run them in parallel, sharing the domain and its index in
    place.  One worker runs the jobs on the calling thread.  Jobs run at
    once, so none may reach process-global state: the theorem-2 probe
    jobs only build finitely connected domains and estimate on them, and
    the layered-crossing jobs only walk.  The first job to raise, in job
    order, raises here.
    """
    workers = min(_worker_count(threads), n_jobs)
    if workers <= 1:
        return [job(i) for i in range(n_jobs)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, range(n_jobs)))


def _run_walks(domain, z0, eps, seed, n_walks, max_steps, r_out, threads):
    # one kernel call per contiguous range of walks (see _CHUNK)
    k = min(_worker_count(threads), -(-n_walks // _CHUNK))
    cuts = [n_walks * i // k for i in range(k + 1)]

    def job(i):
        return _walk_chunk(domain, z0, eps, seed, cuts[i], cuts[i + 1], max_steps, r_out)

    parts = _map_jobs(job, k, k)
    # each walk's draws depend only on its index, so concatenating the
    # ranges in walk order makes every aggregate bit-reproducible
    exit_code = np.concatenate([p[0] for p in parts])
    steps = np.concatenate([p[1] for p in parts])
    path = np.concatenate([p[2] for p in parts])
    return exit_code, steps, path


def parse_target(target, n_bubbles: int):
    if target in ("exterior", "all"):
        return target, -1
    if isinstance(target, str) and target.startswith("bubble:"):
        try:
            k = int(target.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad target {target!r}: the bubble index must be an integer") from None
    elif isinstance(target, int):
        k = target
    else:
        raise ValidationError(f"bad target {target!r}: use exterior, bubble:<k> or all")
    if not 0 <= k < n_bubbles:
        raise ValidationError(f"bubble index {k} out of range (domain has {n_bubbles})")
    return "bubble", k


def _steps_histogram(steps: np.ndarray) -> tuple:
    out = [int(np.count_nonzero(steps == 0))]
    nz = steps[steps > 0]
    bins = np.floor(np.log2(nz.astype(np.float64))).astype(np.int64) + 1
    out.extend(int(c) for c in np.bincount(bins)[1:])
    return tuple(out)


def estimate_measure(domain: ChampagneDomain, z0, target="exterior",
                     n_walks: int = 10_000, epsilon=None, seed: int = 0,
                     threads: int = 1, max_steps: int = 1_000_000) -> MeasureEstimate:
    """Estimate the harmonic measure of a boundary component set at z0.

    Walk w draws from the counter-based stream (seed, w); the result is
    bit-identical across worker counts and batch layouts.
    """
    z0 = complex(z0)
    domain.require_interior(z0, "z0")
    if n_walks < 1:
        raise ValidationError("n_walks must be >= 1")
    kind, k = parse_target(target, domain.n_bubbles)
    eps = _resolve_epsilon(domain, epsilon)
    t0 = time.perf_counter()
    code, steps, path = _run_walks(domain, z0, eps, seed, n_walks, max_steps, 1.0, threads)
    wall = time.perf_counter() - t0

    counts = np.bincount(code, minlength=domain.n_bubbles + 1)
    hits_ext = int(counts[0])
    per_bubble = {int(k - 1): int(counts[k]) for k in range(1, counts.size) if counts[k]}

    if kind == "exterior":
        successes = hits_ext
    elif kind == "all":
        successes = n_walks
    else:
        successes = per_bubble.get(k, 0)
    lo, hi = wilson_interval(successes, n_walks)
    return MeasureEstimate(
        n_walks=n_walks,
        hits_exterior=hits_ext,
        hits_per_bubble=per_bubble,
        hits_truncation=0,
        estimate=successes / n_walks,
        ci_low=lo,
        ci_high=hi,
        epsilon=eps,
        seed=int(seed),
        target=str(target),
        steps_total=int(steps.sum()),
        steps_mean=float(steps.mean()),
        steps_max=int(steps.max()),
        steps_hist=_steps_histogram(steps),
        path_length_mean=float(path.mean()),
        wall_time=wall,
    )


# ---------------------------------------------------------------------------
# deterministic sandwich bounds

@dataclass(frozen=True)
class SandwichBounds:
    """Deterministic bracket for the exterior measure at the start point.

    components[k] = w_k G_k(start), with G_k = log(1/rho(., lambda_k)) and
    w_k = 1/log(1/s_k) for bubble k's centre lambda_k and pseudo radius s_k:
    the harmonic measure of bubble k alone.  lower_union = max(0, 1 - sum_k)
    takes every weight (a union bound); upper_single = 1 - max_k takes the
    weight of the most absorbing bubble alone and 0 for the rest (removing
    bubbles can only increase the exterior measure).
    """

    lower_union: float
    upper_single: float
    components: tuple = field(repr=False)  # per-bubble single-hole measures, domain order
    start: complex


def sandwich_bounds(domain: ChampagneDomain, z0=0j) -> SandwichBounds:
    """The sandwich bounds at z0: the weights of SandwichBounds over one row
    of barriers._charge_matrix, at z0 with one group per bubble."""
    z0 = complex(z0)
    domain.require_interior(z0, "z0")
    if domain.n_bubbles == 0:
        return SandwichBounds(1.0, 1.0, (), z0)
    g = _charge_matrix(domain.pseudo_centers, np.arange(domain.n_bubbles), [z0])[0]
    terms = g / -np.log(domain.pseudo_radii)
    if np.any(terms >= 1.0):
        bad = int(np.argmax(terms))
        raise ValidationError(f"z0={z0!r} is within the pseudo radius of bubble {bad}")
    return SandwichBounds(
        lower_union=max(0.0, 1.0 - float(terms.sum())),
        upper_single=1.0 - float(terms.max()),
        components=tuple(float(t) for t in terms),
        start=z0,
    )


# ---------------------------------------------------------------------------
# layered crossing probabilities

@dataclass(frozen=True)
class LayerCrossing:
    j: int
    modulus_from: float
    modulus_to: float
    q_hat: float             # worst case (max) over the start grid
    per_start: tuple         # (start, estimate, ci_low, ci_high) per valid start
    dropped_starts: int


@dataclass(frozen=True)
class LayeredCrossingReport:
    layers: tuple
    product: float           # prod_j q_hat_j
    complement_sum: float    # sum_j (1 - q_hat_j)
    n_walks: int
    grid_points: int
    seed: int
    epsilon: float
    convention: str


def layered_crossing(domain: ChampagneDomain, K: float, j_max: int,
                     n_walks: int = 2000, epsilon=None, seed: int = 0,
                     grid_points: int = 32, threads: int = 1,
                     max_steps: int = 1_000_000) -> LayeredCrossingReport:
    """Estimate, layer by layer, the worst-case probability of crossing
    from the circle |z| = 1 - K^-(j-1) to |z| = 1 - K^-j before hitting a
    bubble.

    The target circle is simulated as an absorbing outer boundary, which
    reproduces the continuous crossing event exactly (inside it the unit
    circle is unreachable, so a walk that would touch the rim first has
    already crossed).  The starts of a layer are spread over `threads`
    worker threads (0: one per core), one start's walks per job.  A layer
    of one start (j = 1, from the origin) splits its walks over them
    instead, one range per _CHUNK = 8,192 walks, so only beyond 8,192
    walks; the default 2,000 run on the calling thread.
    """
    if not 1.0 < K < math.inf:
        raise ValidationError(f"K must be finite and exceed 1, got {K!r}")
    if j_max < 1:
        raise ValidationError("j_max must be >= 1")
    if n_walks < 1:
        raise ValidationError("n_walks must be >= 1")
    if grid_points < 8:
        raise ValidationError("need at least 8 grid points per circle")
    outermost = 1.0 - K ** (-j_max)
    if domain.truncation_R < outermost:
        raise ValidationError(
            f"domain truncation {domain.truncation_R:g} does not cover the outer circle {outermost:g}"
        )
    idx = domain.index
    min_gap = (K - 1.0) * K ** (-j_max)
    if epsilon is None:
        # r_min is inf on a domain without bubbles
        epsilon = 1e-3 * min(min_gap, idx.r_min)
    eps = _resolve_epsilon(domain, epsilon)

    layers = []
    for j in range(1, j_max + 1):
        m_prev = 1.0 - K ** (-(j - 1))
        m_to = 1.0 - K ** (-j)
        if m_prev <= 0.0:
            starts = np.array([0.0 + 0.0j])
        else:
            theta = _TWO_PI * np.arange(grid_points) / grid_points
            starts = m_prev * np.exp(1j * theta)

        # the workers share the starts, or split the walks of a lone start
        start_threads = threads if starts.size == 1 else 1

        def job(k_s):
            # None for a start within eps of a bubble
            z_s = complex(starts[k_s])
            if domain.n_bubbles and nearest_disk(z_s.real, z_s.imag, idx.cx, idx.cy,
                                                 idx.radii)[0] <= eps:
                return None
            code, _, _ = _run_walks(domain, z_s, eps, derive_seed(seed, "layered", j, k_s),
                                    n_walks, max_steps, m_to, start_threads)
            hits = int(np.count_nonzero(code == _CODE_EXTERIOR))
            return (z_s, hits / n_walks, *wilson_interval(hits, n_walks))

        done = _map_jobs(job, starts.size, threads)
        per_start = [p for p in done if p is not None]
        dropped = len(done) - len(per_start)
        if not per_start:
            raise ValidationError(f"all start points on layer {j} sit inside bubbles")
        q_hat = max(p[1] for p in per_start)
        layers.append(LayerCrossing(j=j, modulus_from=m_prev, modulus_to=m_to,
                                    q_hat=q_hat, per_start=tuple(per_start),
                                    dropped_starts=dropped))
    product = 1.0
    comp = 0.0
    for lay in layers:
        product *= lay.q_hat
        comp += 1.0 - lay.q_hat
    return LayeredCrossingReport(
        layers=tuple(layers), product=product, complement_sum=comp,
        n_walks=n_walks, grid_points=grid_points, seed=int(seed), epsilon=eps,
        convention=("the target circle absorbs; the unit circle is unreachable inside it, "
                    "so rim-first trajectories count as crossings"),
    )
