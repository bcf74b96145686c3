import ast
import hashlib
import inspect
import math
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import champagne as ch
from champagne import walker
from champagne.errors import OverlapError, ValidationError, WalkBudgetError
from champagne.harmonic_density import McParams, ProbeSpec, harmonic_density_curve
from champagne.spatial import nearest_disk
from champagne.walker import (
    estimate_measure,
    layered_crossing,
    one_hole_exact,
    parse_target,
    sandwich_bounds,
    wilson_interval,
)

from conftest import euclidean_domain, mobius_transported_estimate, rand_disk_points, wos_walk
from grid_build import nearest_surface


# -- exact one-hole oracle ----------------------------------------------------

def test_one_hole_values():
    assert one_hole_exact(0.5, 0.25) == pytest.approx(0.5, abs=1e-15)
    for k in (2, 3, 5):
        zeta = 0.3  # radius |zeta|^k gives the logarithm ratio 1/k
        assert one_hole_exact(zeta, zeta ** k) == pytest.approx(1.0 / k, abs=1e-12)
    assert one_hole_exact(0.8, 0.1) == pytest.approx(math.log(0.8) / math.log(0.1), abs=1e-15)


def test_one_hole_rejects_covered_origin():
    with pytest.raises(ValidationError):
        one_hole_exact(0.2, 0.3)
    with pytest.raises(ValidationError):
        one_hole_exact(0.2, 0.2)


# -- the nearest disk ---------------------------------------------------------
# layered_crossing drops a start within the shell of a bubble by the distance
# spatial.nearest_disk returns: one scan over every disk, with no walk grid

def test_distance_matches_brute_force():
    seq = ch.generate_ring_lattice(0.5, 2, 6, seed=12)
    dom = ch.build_champagne(seq, ch.power_profile(0.1, 2), 1 - 2.0 ** -6)
    rng = np.random.default_rng(0)
    cx, cy, r = dom.centers.real, dom.centers.imag, dom.radii
    for z in rand_disk_points(rng, 300, 0.98):
        gaps = np.array([np.hypot(z.real - x, z.imag - y) - s for x, y, s in zip(cx, cy, r)])
        # the first minimum: the lowest index wins ties
        assert nearest_disk(z.real, z.imag, cx, cy, r) == (gaps.min(), int(np.argmin(gaps)))
    assert dom._index is None


@st.composite
def distance_cases(draw):
    """(domain, points) on a random lattice: points anywhere in the disk and
    points 1e-16 to 1e-9 outside a bubble's surface."""
    seq = ch.generate_ring_lattice(draw(st.floats(0.3, 0.7)), draw(st.floats(0.5, 3.0)),
                                   draw(st.integers(1, 6)), seed=draw(st.integers(0, 99)))
    profile = ch.parse_profile(draw(st.sampled_from(["power:0.1,2", "expinv:1,1",
                                                     "power:0.05,4"])))
    try:
        dom = ch.build_champagne(seq, profile, 1.0 - 2.0 ** -draw(st.integers(1, 8)))
    except OverlapError:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rand_disk_points(rng, 30, 0.999)
    if dom.n_bubbles:
        i = rng.integers(0, dom.n_bubbles, 30)
        gap = 10.0 ** rng.uniform(-16.0, -9.0, 30)
        pts = np.concatenate([pts, dom.centers[i] + (dom.radii[i] + gap)
                              * np.exp(2j * np.pi * rng.uniform(size=30))])
    return dom, pts


@given(distance_cases())
@settings(max_examples=60, deadline=None)
def test_distance_equals_the_ring_search(case):
    dom, pts = case
    assume(dom.n_bubbles)
    got = [nearest_disk(z.real, z.imag, dom.centers.real, dom.centers.imag, dom.radii)
           for z in pts]
    assert dom._index is None       # the query builds no walk grid
    assert got == [nearest_surface(dom.index, z.real, z.imag) for z in pts]


# -- single walks ---------------------------------------------------------------

def test_walk_empty_domain_exits_exterior(empty_domain):
    ev = wos_walk(empty_domain, 0j, 1e-6, seed=1)
    assert ev.component == "exterior"
    assert abs(abs(ev.position) - 1.0) < 1e-5
    assert ev.steps >= 1


def test_walk_immediate_exit_when_started_in_shell(one_bubble_domain):
    dom = one_bubble_domain
    z0 = dom.centers[0] + dom.radii[0] + 5e-8  # within epsilon of the bubble
    ev = wos_walk(dom, z0, 1e-6, seed=3)
    assert ev.component == "bubble"
    assert ev.bubble_index == 0
    assert ev.steps == 0


def test_walk_exits_at_the_nearest_component():
    # brute-force oracle of the classification rule, with the kernel's own
    # distance formula: nearest component, exterior first, then lowest index
    seq = ch.generate_ring_lattice(0.5, 2, 6, seed=12)
    dom = ch.build_champagne(seq, ch.power_profile(0.1, 2), 1 - 2.0 ** -6)
    cx, cy, r = dom.centers.real, dom.centers.imag, dom.radii
    kinds = set()
    for w in range(50):
        ev = wos_walk(dom, 0.2 - 0.1j, None, seed=8, walk_index=w)
        x, y = ev.position.real, ev.position.imag
        gaps = np.sqrt((x - cx) ** 2 + (y - cy) ** 2) - r
        d_ext = 1.0 - math.sqrt(x * x + y * y)
        if d_ext <= gaps.min():
            assert (ev.component, ev.bubble_index) == ("exterior", -1)
        else:
            assert (ev.component, ev.bubble_index) == ("bubble", int(np.argmin(gaps)))
        kinds.add(ev.component)
    assert kinds == {"exterior", "bubble"}


def test_walk_budget_error(one_bubble_domain):
    with pytest.raises(WalkBudgetError):
        wos_walk(one_bubble_domain, 0j, 1e-9, seed=1, max_steps=3)


def test_walk_step_count_law(empty_domain):
    # degenerate exactness: from the center the first maximal circle is the
    # unit circle itself, so the walk exits in one jump
    at_center = estimate_measure(empty_domain, 0j, n_walks=1000, epsilon=1e-6, seed=2)
    assert at_center.steps_mean == 1.0
    # from a generic start the mean grows like log(1/eps): tens of steps
    est = estimate_measure(empty_domain, 0.3 + 0j, n_walks=10_000, epsilon=1e-6, seed=2)
    assert 5.0 <= est.steps_mean <= 60.0
    est2 = estimate_measure(empty_domain, 0.3 + 0j, n_walks=10_000, epsilon=1e-9, seed=2)
    assert est.steps_mean < est2.steps_mean <= 2.5 * est.steps_mean


def test_epsilon_validation(one_bubble_domain):
    with pytest.raises(ValidationError):
        estimate_measure(one_bubble_domain, 0j, n_walks=10, epsilon=0.5)  # >= bubble radius
    with pytest.raises(ValidationError):
        estimate_measure(one_bubble_domain, 0j, n_walks=10, epsilon=-1.0)


# -- measure estimates ------------------------------------------------------------

def test_estimate_one_bubble_matches_exact(one_bubble_domain):
    est = estimate_measure(one_bubble_domain, 0j, target="bubble:0",
                           n_walks=20_000, epsilon=1e-6, seed=7)
    assert abs(est.estimate - 0.5) <= max(0.01, 3 * est.sigma)
    assert est.ci_low <= est.estimate <= est.ci_high


def test_estimate_complementarity(two_bubble_domain):
    est = estimate_measure(two_bubble_domain, 0j, n_walks=5000, epsilon=1e-6, seed=3)
    total = est.hits_exterior + sum(est.hits_per_bubble.values()) + est.hits_truncation
    assert total == est.n_walks
    ext = estimate_measure(two_bubble_domain, 0j, target="exterior",
                           n_walks=5000, epsilon=1e-6, seed=3)
    b0 = estimate_measure(two_bubble_domain, 0j, target="bubble:0",
                          n_walks=5000, epsilon=1e-6, seed=3)
    b1 = estimate_measure(two_bubble_domain, 0j, target="bubble:1",
                          n_walks=5000, epsilon=1e-6, seed=3)
    assert ext.estimate + b0.estimate + b1.estimate == pytest.approx(1.0, abs=1e-15)


def test_estimate_concentric_annulus():
    # Euclidean bubble centered at 0: h(w) = log|w| / log s on the annulus
    dom = ch.domain_from_pseudo([(0j, 0.1)])
    est = estimate_measure(dom, 0.5 + 0j, target="exterior",
                           n_walks=40_000, epsilon=1e-6, seed=21)
    exact = 1 - math.log(0.5) / math.log(0.1)
    assert abs(est.estimate - exact) <= max(0.01, 3 * est.sigma)


def test_estimate_walk_parity(two_bubble_domain):
    est = estimate_measure(two_bubble_domain, 0j, n_walks=150, epsilon=1e-6, seed=11)
    hits = {"exterior": 0}
    for w in range(150):
        ev = wos_walk(two_bubble_domain, 0j, 1e-6, seed=11, walk_index=w)
        key = "exterior" if ev.component == "exterior" else ev.bubble_index
        hits[key] = hits.get(key, 0) + 1
    assert hits["exterior"] == est.hits_exterior
    for k, v in est.hits_per_bubble.items():
        assert hits.get(k, 0) == v


def test_estimate_deterministic_across_threads(two_bubble_domain):
    runs = [estimate_measure(two_bubble_domain, 0j, n_walks=20_000, epsilon=1e-6,
                             seed=5, threads=t) for t in (1, 2, 4)]
    assert runs[0].canonical_json() == runs[1].canonical_json() == runs[2].canonical_json()


def test_many_threads_switching_often_match_one(two_bubble_domain, monkeypatch):
    # more worker threads than cores over many short ranges, with the
    # interpreter switching threads as often as it can: the ranges still
    # share the domain's index safely and land in walk order
    want = estimate_measure(two_bubble_domain, 0j, n_walks=4000, epsilon=1e-6, seed=5)
    monkeypatch.setattr(walker, "_CHUNK", 50)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = estimate_measure(two_bubble_domain, 0j, n_walks=4000, epsilon=1e-6, seed=5,
                               threads=16)
    finally:
        sys.setswitchinterval(interval)
    assert got.canonical_json() == want.canonical_json()


class RecordingPool(ThreadPoolExecutor):
    """A thread pool that records the worker count of each pool opened."""

    opened = []

    def __init__(self, max_workers=None, **kwargs):
        self.opened.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


@pytest.fixture
def opened(monkeypatch):
    monkeypatch.setattr(walker, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "opened", [])
    return RecordingPool.opened


def test_threads_zero_means_one_per_core_for_every_caller(empty_domain, opened, monkeypatch):
    monkeypatch.setattr(walker.os, "cpu_count", lambda: 3)
    n = 2 * walker._CHUNK + 1  # three ranges, so each of three workers has one
    estimate_measure(empty_domain, 0j, n_walks=n, epsilon=1e-6, seed=1, threads=0)
    layered_crossing(empty_domain, K=2.0, j_max=1, n_walks=n, seed=1, threads=0)
    # layer 2 has eight starts, so each of three workers has some
    layered_crossing(empty_domain, K=2.0, j_max=2, n_walks=10, seed=1, grid_points=8, threads=0)
    seq = ch.PointSequence(np.array([0.7 + 0j, -0.7j]))
    harmonic_density_curve(seq, [0.9], "lower", ProbeSpec(points=(0j, 0.1 + 0j, -0.1j)),
                           McParams(n_walks=100, pilot_walks=100, seed=1, threads=0))
    assert opened == [3, 3, 3, 3]


def test_negative_threads_are_rejected(empty_domain):
    with pytest.raises(ValidationError):
        estimate_measure(empty_domain, 0j, n_walks=10, epsilon=1e-6, threads=-4)
    with pytest.raises(ValidationError):
        layered_crossing(empty_domain, K=2.0, j_max=1, n_walks=10, threads=-4)


def test_pointlike_encounters_are_pinned():
    # three bubbles below double-precision resolution: walks reaching them
    # are resolved by the annulus formula, a few hundred times here
    dom = ch.domain_from_pseudo([(0.5, 0.3), (0.5 + 0.3j, 1e-12), (-0.6, 1e-13), (0.95j, 1e-11)])
    assert dom.index.pointlike.tolist() == [False, True, True, True]
    n = 30_000
    est = estimate_measure(dom, 0j, target="all", n_walks=n, seed=0)
    assert est.hits_per_bubble == {0: 17260, 1: 39, 2: 355, 3: 28}
    assert (hashlib.sha256(est.canonical_json().encode()).hexdigest()
            == "4dd63a6073cd7ab53f42ce1c7d856da1228117b1b4e48040a58cf5b1e8b66424")
    # the counts pinned while the jump direction called libm sin and cos:
    # a re-pin after a change of the last bits keeps each within 4 sigma
    libm = {0: 17260, 1: 39, 2: 355, 3: 28}
    for k, hits in est.hits_per_bubble.items():
        p = libm[k] / n
        assert abs(hits - libm[k]) <= 4.0 * math.sqrt(n * p * (1.0 - p))


def test_cramped_pointlike_encounter_is_a_hit_without_draws():
    # the tiny bubble sits 3e-9 from the rim: its bubble-free annulus is
    # no wider than 4 * 1e-9, so a walk 5e-10 away is absorbed at once
    dom = ch.domain_from_pseudo([(0.5j, 0.2), (1 - 3e-9, 1e-3)])
    assert dom.index.pointlike.tolist() == [False, True]
    est = estimate_measure(dom, dom.centers[1] - 5e-10, target="bubble:1", n_walks=100, seed=0)
    assert est.hits_per_bubble == {1: 100}
    assert est.steps_total == 0


def _pointlike_domain():
    # the domain of test_pointlike_encounters_are_pinned
    return ch.domain_from_pseudo([(0.5, 0.3), (0.5 + 0.3j, 1e-12), (-0.6, 1e-13), (0.95j, 1e-11)])


def _pool_runs():
    dom = _pointlike_domain()
    # a start 0.01 from the 1e-13 bubble: about one walk in eight ends there
    near = estimate_measure(dom, -0.59 + 0j, target="bubble:2", n_walks=60, seed=3)
    whole = estimate_measure(dom, 0j, target="all", n_walks=100, seed=4)
    tiny = ch.domain_from_pseudo([(0.25 + 0j, 0.02), (0.6 + 0.3j, 1e-12)], truncation_R=1.0)
    layered = layered_crossing(tiny, K=2.0, j_max=2, n_walks=20, seed=6, grid_points=8)
    return near.canonical_json(), whole.canonical_json(), repr(layered), near


@pytest.mark.parametrize("width", [1, 7, 64])
def test_results_do_not_depend_on_the_pool_width(width, monkeypatch):
    want = _pool_runs()
    assert want[3].hits_per_bubble.get(2, 0) > 0  # point-like encounters happened
    monkeypatch.setattr(walker, "_CHUNK", width)
    assert _pool_runs()[:3] == want[:3]


def test_walks_that_fit_one_pool_are_not_split(empty_domain, opened):
    estimate_measure(empty_domain, 0j, n_walks=walker._CHUNK, epsilon=1e-6, seed=1, threads=4)
    # layered's first layer is one start, the origin, whose walks split as an estimate's do
    layered_crossing(empty_domain, K=2.0, j_max=1, n_walks=walker._CHUNK, seed=1, threads=4)
    assert opened == []


def test_budget_error_over_more_walks_than_one_pool(one_bubble_domain):
    with pytest.raises(WalkBudgetError):
        estimate_measure(one_bubble_domain, 0.1 + 0j, n_walks=walker._CHUNK + 1,
                         epsilon=1e-9, seed=1, max_steps=3)


def test_budget_error_in_a_worker_reaches_the_caller(one_bubble_domain, opened):
    with pytest.raises(WalkBudgetError) as info:
        estimate_measure(one_bubble_domain, 0.1 + 0j, n_walks=walker._CHUNK + 1,
                         epsilon=1e-9, seed=1, max_steps=3, threads=2)
    assert opened == [2]
    # the error of the first range, as that range raises it in-process
    with pytest.raises(WalkBudgetError) as first:
        walker._walk_chunk(one_bubble_domain, 0.1 + 0j, 1e-9, 1, 0, walker._CHUNK // 2, 3, 1.0)
    got, want = info.value, first.value
    assert (got.n_failed, got.max_steps, got.sample_position) == (
        want.n_failed, want.max_steps, want.sample_position)


def test_walk_kernel_has_no_per_walk_python():
    assert not hasattr(walker, "_classify_row")
    tree = ast.parse(textwrap.dedent(inspect.getsource(walker._walk_chunk)))
    loops = [type(node).__name__ for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.comprehension, ast.FunctionDef, ast.Lambda))]
    assert loops == ["FunctionDef"]  # only _walk_chunk itself


def test_estimate_epsilon_bias_bounded(one_bubble_domain):
    a = estimate_measure(one_bubble_domain, 0j, n_walks=20_000, epsilon=2e-6, seed=9)
    b = estimate_measure(one_bubble_domain, 0j, n_walks=20_000, epsilon=1e-6, seed=9)
    assert abs(a.estimate - b.estimate) <= 3 * math.sqrt(a.sigma ** 2 + b.sigma ** 2)


def test_estimate_mobius_invariance(two_bubble_domain):
    base = estimate_measure(two_bubble_domain, 0j, n_walks=20_000, epsilon=1e-6, seed=14)
    moved = mobius_transported_estimate(two_bubble_domain, 0j, 0.3 - 0.2j,
                                        n_walks=20_000, epsilon=1e-6, seed=15)
    assert abs(base.estimate - moved.estimate) <= 3 * math.sqrt(base.sigma ** 2 + moved.sigma ** 2)


def test_target_parsing(two_bubble_domain):
    assert parse_target("exterior", 2) == ("exterior", -1)
    assert parse_target("bubble:1", 2) == ("bubble", 1)
    assert parse_target("all", 2) == ("all", -1)
    with pytest.raises(ValidationError):
        parse_target("bubble:7", 2)
    est = estimate_measure(two_bubble_domain, 0j, target="all", n_walks=500,
                           epsilon=1e-6, seed=1)
    assert est.estimate == 1.0


@pytest.mark.parametrize("target", ["bubble:abc", "bubble:", "bubble:7", "nowhere"])
def test_a_bad_target_is_refused_before_any_walk(two_bubble_domain, target, monkeypatch):
    def no_walks(*args):
        raise AssertionError("walks ran before the target was checked")

    monkeypatch.setattr(walker, "_run_walks", no_walks)
    with pytest.raises(ValidationError):
        estimate_measure(two_bubble_domain, 0j, target=target, n_walks=500, epsilon=1e-6)


def test_steps_histogram_partitions_walks(one_bubble_domain):
    est = estimate_measure(one_bubble_domain, 0j, n_walks=3000, epsilon=1e-6, seed=4)
    assert sum(est.steps_hist) == est.n_walks
    assert est.steps_max >= 1


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0.0 < hi < 0.06
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


# -- sandwich bounds -----------------------------------------------------------

def test_sandwich_single_bubble_is_exact(one_bubble_domain):
    sb = sandwich_bounds(one_bubble_domain, 0j)
    exact = 1 - one_hole_exact(0.5, 0.25)
    assert sb.lower_union == pytest.approx(exact, abs=1e-15)
    assert sb.upper_single == pytest.approx(exact, abs=1e-15)


def test_sandwich_two_bubble_arithmetic():
    # terms log|lam|/log s = 0.3 and 0.2 by construction
    lam_a, s_a = 0.5, 0.5 ** (1 / 0.3)
    lam_b, s_b = 0.6, 0.6 ** (1 / 0.2)
    dom = ch.domain_from_pseudo([(lam_a + 0j, s_a), (lam_b * 1j, s_b)])
    sb = sandwich_bounds(dom, 0j)
    assert sb.components == pytest.approx((0.3, 0.2), abs=1e-12)
    assert sb.lower_union == pytest.approx(0.5, abs=1e-12)
    assert sb.upper_single == pytest.approx(0.7, abs=1e-12)


def test_sandwich_clips_at_zero():
    dom = ch.domain_from_pseudo([(0.5 + 0j, 0.45), (-0.5 + 0j, 0.45)])
    sb = sandwich_bounds(dom, 0j)
    assert sb.lower_union == 0.0
    assert sum(sb.components) > 1.0


def test_sandwich_empty_domain(empty_domain):
    sb = sandwich_bounds(empty_domain, 0j)
    assert sb.lower_union == sb.upper_single == 1.0


def test_sandwich_off_center_start(two_bubble_domain):
    sb = sandwich_bounds(two_bubble_domain, 0.2 + 0.1j)
    assert 0.0 <= sb.lower_union <= sb.upper_single <= 1.0
    est = estimate_measure(two_bubble_domain, 0.2 + 0.1j, n_walks=20_000,
                           epsilon=1e-6, seed=31)
    assert sb.lower_union - 3 * est.sigma <= est.estimate <= sb.upper_single + 3 * est.sigma


# -- layered crossings -----------------------------------------------------------

def test_layered_empty_domain_crosses_surely(empty_domain):
    rep = layered_crossing(empty_domain, K=2.0, j_max=3, n_walks=200, seed=5,
                           grid_points=8)
    assert all(layer.q_hat == 1.0 for layer in rep.layers)
    assert rep.product == 1.0
    assert rep.complement_sum == 0.0
    assert "absorbs" in rep.convention


def test_layered_bubble_between_first_circles():
    dom = ch.domain_from_pseudo([(0.25 + 0j, 0.02)], truncation_R=1.0)
    rep = layered_crossing(dom, K=2.0, j_max=3, n_walks=3000, seed=6, grid_points=8)
    q = [layer.q_hat for layer in rep.layers]
    assert q[0] < 0.95          # the bubble sits between C_0 and C_1
    assert min(q[1], q[2]) > q[0]
    assert rep.product == pytest.approx(q[0] * q[1] * q[2])


def test_layered_spreads_the_starts_of_a_layer_over_the_threads(monkeypatch):
    # one start's walks are a single kernel range below walker._CHUNK walks,
    # so the workers share the starts; the report does not depend on them
    dom = ch.domain_from_pseudo([(0.25 + 0j, 0.02)], truncation_R=1.0)
    serial = layered_crossing(dom, K=2.0, j_max=2, n_walks=200, seed=6, grid_points=8)
    seen = set()
    chunk = walker._walk_chunk

    def recorded(*args):
        seen.add(threading.get_ident())
        time.sleep(0.01)   # lets the other worker take a start meanwhile
        return chunk(*args)

    monkeypatch.setattr(walker, "_walk_chunk", recorded)
    assert layered_crossing(dom, K=2.0, j_max=2, n_walks=200, seed=6, grid_points=8,
                            threads=2) == serial
    assert len(seen) > 1


def test_layered_validation(empty_domain, one_bubble_domain):
    with pytest.raises(ValidationError):
        layered_crossing(empty_domain, K=2.0, j_max=2, grid_points=4)
    with pytest.raises(ValidationError):
        layered_crossing(empty_domain, K=1.0, j_max=2)
    shallow = ch.domain_from_pseudo([(0.5 + 0j, 0.1)], truncation_R=0.6)
    with pytest.raises(ValidationError):
        layered_crossing(shallow, K=2.0, j_max=4)


@pytest.mark.parametrize("epsilon", [-1.0, 0.0])
def test_layered_checks_epsilon_without_bubbles(empty_domain, epsilon):
    # estimate_measure refuses the same value on the same domain
    with pytest.raises(ValidationError, match="epsilon must be positive"):
        ch.estimate_measure(empty_domain, 0j, n_walks=10, epsilon=epsilon)
    with pytest.raises(ValidationError, match="epsilon must be positive"):
        layered_crossing(empty_domain, K=2.0, j_max=2, n_walks=10, epsilon=epsilon,
                         grid_points=8)


def _drop_domain(eps):
    # bubble 0 holds the layer-2 start 0.5 e^{i pi/4}; bubble 1 lies eps/2
    # beyond the start 0.5i and bubble 2 lies 2 eps beyond the start -0.5
    c = np.array([0.5 * np.exp(0.25j * np.pi), 0.6j, -0.6 + 0j])
    r = np.array([0.05, 0.1 - 0.5 * eps, 0.1 - 2.0 * eps])
    return euclidean_domain(c, r, np.arange(3))


def test_layered_drops_the_starts_within_epsilon_of_a_bubble():
    eps = 1e-4
    dom = _drop_domain(eps)
    rep = layered_crossing(dom, K=2.0, j_max=2, n_walks=200, epsilon=eps, seed=6,
                           grid_points=8)
    for layer in rep.layers:
        theta = 2.0 * np.pi * np.arange(8) / 8
        starts = [0j] if layer.j == 1 else layer.modulus_from * np.exp(1j * theta)
        gaps = [min(np.hypot(z.real - c.real, z.imag - c.imag) - r
                    for c, r in zip(dom.centers, dom.radii)) for z in starts]
        assert layer.dropped_starts == sum(g <= eps for g in gaps)
        assert [p[0] for p in layer.per_start] == [complex(z) for z, g in zip(starts, gaps)
                                                   if g > eps]
    assert [layer.dropped_starts for layer in rep.layers] == [0, 2]
    # the report is pinned: which exact nearest query drops the starts must
    # not change it
    assert (hashlib.sha256(repr(rep).encode()).hexdigest()
            == "ed707ecfb641d250da90ac927f31167e8f66b812e85d212e978262244235ec7c")
