"""Walk-on-spheres estimation of harmonic measure on champagne domains.

The sampler is exact in distribution for the first-exit component of
Brownian motion: each jump lands uniformly on a circle contained in the
domain, and discretization enters only through the epsilon-shell at
termination.  Step radii come from the grid index: exact near the
bubbles, conservative lower bounds elsewhere (any radius not exceeding
the true boundary distance keeps the exit law exact, by the strong
Markov property).

The kernel advances a pool of walks as arrays, with no per-walk Python
code.  Each iteration (1) classifies: walks within the shell exit at the
nearest component; (2) resolves point-like encounters: a walk within
1e-9 of a bubble too small to resolve is absorbed with the exact
annulus hitting probability or moved to the annulus' outer circle;
(3) jumps every other walk; (4) refills freed rows from the walk supply,
and compacts once it is exhausted.

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

from .domains import ChampagneDomain, transport_domain
from .errors import ValidationError, WalkBudgetError
from .hyperbolic import mobius_apply, pseudo_distance_many, require_disk_point
from .streams import derive_seed, stream_keys, uniforms_at

# pool width: the most walks one kernel advances at once, which bounds its
# memory; results do not depend on it (each walk reads only its own stream)
_CHUNK = 8192
_TWO_PI = 2.0 * math.pi
_WILSON_Z = 1.959963984540054  # 97.5% normal quantile, for 95% intervals

_CODE_EXTERIOR = 0
_CODE_SHELL = -2

# Termination floor: below this step size the jump may no longer move the
# coordinates of an O(1) position (the float lattice quantum is ~2.2e-16),
# so the shell radius is effectively floored here.  Bias O(floor / gap).
_STEP_FLOOR = 2.0 ** -50

# Walks closer than this to a point-like bubble resolve the encounter with
# the exact annulus hitting probability instead of shrinking steps further.
_ENC_TRIGGER = 1e-9


def wilson_interval(successes: int, n: int, z: float = _WILSON_Z):
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        return 0.0, 1.0
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = phat + z2 / (2.0 * n)
    half = z * math.sqrt(max(0.0, phat * (1.0 - phat) / n + z2 / (4.0 * n * n)))
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


def distance_to_boundary(domain: ChampagneDomain, z):
    """Exact distance from an interior point to the nearest boundary
    component: (distance, kind, bubble_index).

    Tie-break is exterior first, then lowest bubble index.  Raises when z
    is not strictly interior.
    """
    z = complex(z)
    d_ext = 1.0 - abs(z)
    if d_ext <= 0.0:
        raise ValidationError(f"z={z!r} is not inside the open unit disk")
    if domain.n_bubbles == 0:
        return d_ext, "exterior", -1
    d_bub, idx = domain.index.nearest_surface(z.real, z.imag)
    if min(d_ext, d_bub) <= 0.0:
        raise ValidationError(
            f"z={z!r} is on or inside bubble {idx}: interior points need positive clearance"
        )
    if d_ext <= d_bub:
        return d_ext, "exterior", -1
    return d_bub, "bubble", int(idx)


@dataclass(frozen=True)
class ExitEvent:
    component: str          # "exterior" | "bubble" | "truncation_shell"
    bubble_index: int       # -1 unless component == "bubble"
    position: complex
    steps: int
    path_length: float


@dataclass
class MeasureEstimate:
    """Monte Carlo estimate of the harmonic measure of a target component set."""

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
                w0: int, w1: int, max_steps: int, r_out: float,
                absorbing_shell):
    """Run walks [w0, w1); returns (exit_code, steps, path_length, exit_pos).

    The walks share a pool of at most _CHUNK rows: a row whose walk exits
    takes the next unstarted walk of the range, so the slow tail of the
    step counts is paid once per range rather than once per batch.

    `steps` counts uniform draws: one per jump, two per analytically
    resolved point-like encounter (survival Bernoulli plus exit angle).
    """
    idx = domain.index
    n = w1 - w0
    width = min(n, _CHUNK)
    supply = stream_keys(seed, np.arange(w0, w1, dtype=np.uint64))
    started = width                     # walks of the range handed to a row so far
    keys = supply[:width].copy()
    x = np.full(width, z0.real)
    y = np.full(width, z0.imag)
    path = np.zeros(width)
    cnt = np.zeros(width, dtype=np.int64)   # per-walk stream counter
    walk_row = np.arange(width)             # walk of each row, relative to w0

    exit_code = np.full(n, -1, dtype=np.int64)
    exit_steps = np.zeros(n, dtype=np.int64)
    exit_path = np.zeros(n)
    exit_x = np.zeros(n)
    exit_y = np.zeros(n)

    cx = idx.cx
    cy = idx.cy
    rad = idx.radii
    h = idx.h
    eps_eff = max(eps, _STEP_FLOOR)

    while x.size:
        mod = np.sqrt(x * x + y * y)
        d_ext = r_out - mod

        # nearest candidate surface and the lowest bubble index attaining
        # it; rows without candidates keep (inf, n_disks)
        cells = idx.cells_of(x, y)
        rep, items, offsets, lens = idx.gather_candidates(cells)
        cand_min = np.full(x.size, np.inf)
        near = np.full(x.size, idx.n_disks)
        if items.size:
            dist = np.sqrt((x[rep] - cx[items]) ** 2 + (y[rep] - cy[items]) ** 2) - rad[items]
            nz = lens > 0
            heads = offsets[:-1][nz]
            cand_min[nz] = np.minimum.reduceat(dist, heads)
            near[nz] = np.minimum.reduceat(
                np.where(dist == cand_min[rep], items, idx.n_disks), heads)
        d_bub = np.where(cand_min <= h, cand_min, np.maximum(h, idx.clearance[cells]))
        step = np.minimum(d_ext, d_bub)

        # classify: a terminating walk exits at the nearest component,
        # the exterior winning ties
        out = (step < eps_eff) | (d_ext <= 0.0) | (cand_min <= 0.0)
        code = np.where(d_ext <= cand_min, _CODE_EXTERIOR, near + 1)
        if absorbing_shell is not None:
            shell_hit = mod >= absorbing_shell
            out |= shell_hit
            code[shell_hit] = _CODE_SHELL

        # point-like encounters: resolve by the exact annulus formula in
        # the concentric bubble-free annulus of radius big_d around the
        # tiny bubble (a resolvable bubble this close is the walker's job)
        enc = np.nonzero(~out & (cand_min < _ENC_TRIGGER))[0]
        enc = enc[idx.pointlike[near[enc]]]
        jump = ~out
        if enc.size:
            jump[enc] = False
            b = near[enc]
            code[enc] = b + 1  # even where the rim is nearer than the tiny bubble
            rho0 = cand_min[enc] + rad[b]
            big_d = np.minimum(idx.enc_clearance[b], r_out - idx.enc_modulus[b])
            # cramped clearance: a hit at the shell floor, with no draw
            cramped = big_d <= np.maximum(4.0 * rho0, 4.0 * _ENC_TRIGGER)
            out[enc[cramped]] = True
            enc, b, rho0, big_d = enc[~cramped], b[~cramped], rho0[~cramped], big_d[~cramped]
            p_hit = (np.log(big_d) - np.log(rho0)) / (np.log(big_d) - np.log(rad[b]))
            hit = uniforms_at(keys[enc], cnt[enc]) < p_hit
            cnt[enc] += 1
            out[enc[hit]] = True
            enc, b, big_d = enc[~hit], b[~hit], big_d[~hit]
            ang = _TWO_PI * uniforms_at(keys[enc], cnt[enc])
            cnt[enc] += 1
            x[enc] = cx[b] + big_d * np.cos(ang)
            y[enc] = cy[b] + big_d * np.sin(ang)
            path[enc] += big_d

        gone = np.nonzero(out)[0]
        w = walk_row[gone]
        exit_code[w] = code[gone]
        exit_steps[w] = cnt[gone]
        exit_path[w] = path[gone]
        exit_x[w] = x[gone]
        exit_y[w] = y[gone]

        rows = np.nonzero(jump)[0]
        theta = _TWO_PI * uniforms_at(keys[rows], cnt[rows])
        x[rows] += step[rows] * np.cos(theta)
        y[rows] += step[rows] * np.sin(theta)
        path[rows] += step[rows]
        cnt[rows] += 1

        # refill freed rows with the next unstarted walks, in walk order;
        # compact away the rest once the supply is exhausted
        fresh = gone[:n - started]
        if fresh.size:
            walk_row[fresh] = np.arange(started, started + fresh.size)
            started += fresh.size
            keys[fresh] = supply[walk_row[fresh]]
            x[fresh] = z0.real
            y[fresh] = z0.imag
            path[fresh] = 0.0
            cnt[fresh] = 0
            out[fresh] = False
        if fresh.size < gone.size:
            keep = ~out
            x = x[keep]
            y = y[keep]
            path = path[keep]
            keys = keys[keep]
            cnt = cnt[keep]
            walk_row = walk_row[keep]
        if x.size and int(cnt.max()) >= max_steps:
            over = walk_row[cnt >= max_steps]
            raise WalkBudgetError(over.size, max_steps,
                                  complex(x[cnt.argmax()], y[cnt.argmax()]))
    return exit_code, exit_steps, exit_path, exit_x, exit_y


def _run_walks(domain, z0, eps, seed, n_walks, max_steps, r_out, threads,
               absorbing_shell):
    if threads < 0:
        raise ValidationError(f"threads must be >= 0 (0 means one per core), got {threads!r}")
    threads = threads or os.cpu_count() or 1
    # one pool per contiguous range of walks; walks that fit in one pool
    # are not split, since a range costs the same fixed work per
    # iteration however few rows it holds
    k = min(threads, -(-n_walks // _CHUNK))
    cuts = [n_walks * i // k for i in range(k + 1)]

    def job(i):
        return _walk_chunk(domain, z0, eps, seed, cuts[i], cuts[i + 1],
                           max_steps, r_out, absorbing_shell)

    if k == 1:
        parts = [job(0)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(job, range(k)))
    # each walk's draws depend only on its index, so concatenating the
    # ranges in walk order makes every aggregate bit-reproducible
    exit_code = np.concatenate([p[0] for p in parts])
    steps = np.concatenate([p[1] for p in parts])
    path = np.concatenate([p[2] for p in parts])
    ex = np.concatenate([p[3] for p in parts])
    ey = np.concatenate([p[4] for p in parts])
    return exit_code, steps, path, ex, ey


def wos_walk(domain: ChampagneDomain, z0, epsilon, seed: int, walk_index: int = 0,
             max_steps: int = 1_000_000, r_out: float = 1.0) -> ExitEvent:
    """Run walk `walk_index` of the stream `seed` and return its exit event.

    The walk jumps to a uniform point on a circle of the current safe
    radius until it lands within epsilon of the boundary; the nearest
    component at termination is the sample.  A walk beyond the outermost
    bubbles keeps walking in the bubble-free annulus until the epsilon
    shell of the unit circle absorbs it; it is never short-circuited.
    """
    z0 = complex(z0)
    domain.require_interior(z0, "z0")
    eps = _resolve_epsilon(domain, epsilon)
    code, steps, path, ex, ey = _walk_chunk(
        domain, z0, eps, seed, walk_index, walk_index + 1, max_steps, r_out, None)
    c = int(code[0])
    if c == _CODE_EXTERIOR:
        component, b_idx = "exterior", -1
    elif c == _CODE_SHELL:
        component, b_idx = "truncation_shell", -1
    else:
        component, b_idx = "bubble", c - 1
    return ExitEvent(component=component, bubble_index=b_idx,
                     position=complex(ex[0], ey[0]), steps=int(steps[0]),
                     path_length=float(path[0]))


def parse_target(target, n_bubbles: int):
    if target in ("exterior", "all"):
        return target, -1
    if isinstance(target, str) and target.startswith("bubble:"):
        k = int(target.split(":", 1)[1])
    elif isinstance(target, int):
        k = target
    else:
        raise ValidationError(f"bad target {target!r}: use exterior, bubble:<k> or all")
    if not 0 <= k < n_bubbles:
        raise ValidationError(f"bubble index {k} out of range (domain has {n_bubbles})")
    return "bubble", k


def _steps_histogram(steps: np.ndarray) -> tuple:
    if steps.size == 0:
        return ()
    out = [int(np.count_nonzero(steps == 0))]
    nz = steps[steps > 0]
    if nz.size:
        bins = np.floor(np.log2(nz.astype(np.float64))).astype(np.int64) + 1
        counts = np.bincount(bins)
        out.extend(int(c) for c in counts[1:])
    return tuple(out)


def estimate_measure(domain: ChampagneDomain, z0, target="exterior",
                     n_walks: int = 10_000, epsilon=None, seed: int = 0,
                     threads: int = 1, max_steps: int = 1_000_000,
                     absorbing_shell=None) -> MeasureEstimate:
    """Estimate the harmonic measure of a boundary component set at z0.

    Walk w draws from the counter-based stream (seed, w); the result is
    bit-identical across thread counts and batch layouts.
    """
    z0 = complex(z0)
    domain.require_interior(z0, "z0")
    if n_walks < 1:
        raise ValidationError("n_walks must be >= 1")
    eps = _resolve_epsilon(domain, epsilon)
    t0 = time.perf_counter()
    code, steps, path, _, _ = _run_walks(domain, z0, eps, seed, n_walks,
                                         max_steps, 1.0, threads, absorbing_shell)
    wall = time.perf_counter() - t0

    counts = np.bincount(code[code >= 0], minlength=domain.n_bubbles + 1)
    hits_ext = int(counts[0])
    per_bubble = {int(k - 1): int(counts[k]) for k in range(1, counts.size) if counts[k]}
    hits_shell = int(np.count_nonzero(code == _CODE_SHELL))

    kind, k = parse_target(target, domain.n_bubbles)
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
        hits_truncation=hits_shell,
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

    lower_union comes from summing single-bubble measures (a union bound);
    upper_single from dropping all bubbles but the most absorbing one
    (removing bubbles can only increase the exterior measure).
    """

    lower_union: float
    upper_single: float
    components: tuple       # per-bubble single-hole measures, domain order
    start: complex


def sandwich_bounds(domain: ChampagneDomain, z0=0j) -> SandwichBounds:
    z0 = complex(z0)
    domain.require_interior(z0, "z0")
    if domain.n_bubbles == 0:
        return SandwichBounds(1.0, 1.0, (), z0)
    m = pseudo_distance_many(z0, domain.pseudo_centers)
    s = domain.pseudo_radii
    if np.any(m <= s):
        bad = int(np.argmax(s - m))
        raise ValidationError(f"start point sits inside transported bubble {bad}")
    terms = np.log(m) / np.log(s)
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
    already crossed).
    """
    if not K > 1.0:
        raise ValidationError(f"K must exceed 1, got {K!r}")
    if j_max < 1:
        raise ValidationError("j_max must be >= 1")
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
        epsilon = 1e-3 * min(min_gap, idx.r_min if domain.n_bubbles else math.inf)
    eps = float(epsilon)
    if domain.n_bubbles:
        eps = _resolve_epsilon(domain, eps)

    layers = []
    for j in range(1, j_max + 1):
        m_prev = 1.0 - K ** (-(j - 1))
        m_to = 1.0 - K ** (-j)
        if m_prev <= 0.0:
            starts = np.array([0.0 + 0.0j])
        else:
            theta = _TWO_PI * np.arange(grid_points) / grid_points
            starts = m_prev * np.exp(1j * theta)
        per_start = []
        dropped = 0
        for k_s, z_s in enumerate(starts):
            if domain.n_bubbles:
                d, _ = idx.nearest_in_cell(z_s.real, z_s.imag)  # exact, as eps <= h
                if d <= eps:
                    dropped += 1
                    continue
            sub_seed = derive_seed(seed, "layered", j, k_s)
            code, _, _, _, _ = _run_walks(domain, complex(z_s), eps, sub_seed,
                                          n_walks, max_steps, m_to, threads, None)
            hits = int(np.count_nonzero(code == _CODE_EXTERIOR))
            lo, hi = wilson_interval(hits, n_walks)
            per_start.append((complex(z_s), hits / n_walks, lo, hi))
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


def mobius_transported_estimate(domain: ChampagneDomain, z0, a, **kwargs) -> MeasureEstimate:
    """Estimate after transporting domain and start point by the
    automorphism swapping a and 0 (invariance checks)."""
    moved = transport_domain(domain, a)
    z_new = mobius_apply(a, z0)
    return estimate_measure(moved, z_new, **kwargs)
