"""Proximity queries against brute-force all-pairs scans.

Every caller of spatial.PointIndex must report exactly (==) what a scan
over all pairs reports, including for points within 1e-12 of the rim.
The compiled disk grid index must equal a per-disk construction and the
array build it replaced (grid_build.py); over its candidate lists the
one-cell query must equal the ring search within h, and its encounter
data the ring search; the interior check must equal the one-cell scan it
replaced.
"""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import champagne as ch
from champagne import _native, sequences, spatial
from champagne.barriers import extremal_c, extremal_d
from champagne.domains import ChampagneDomain, _check_disjoint
from champagne.errors import OverlapError, ValidationError
from champagne.hyperbolic import pseudo_distance_many, pseudo_to_euclidean_arrays
from champagne.sequences import PointSequence, covering_radius, separation, uniform_density

from grid_build import ArrayGridIndex, nearest_in_cell, nearest_surface

# a point is (log10 of its gap 1 - |z|, angle): gaps from 1e-12 to ~0.9
_polar = st.tuples(st.floats(-11.999, -0.05), st.floats(0.0, 2.0 * np.pi))


def _to_points(polar):
    e, theta = np.array(polar, dtype=np.float64).reshape(-1, 2).T
    return (1.0 - 10.0 ** e) * np.exp(1j * theta)


def _distinct(pts):
    return np.unique(pts).size == pts.size


point_sets = st.lists(_polar, min_size=2, max_size=40).map(_to_points).filter(_distinct)
probe_sets = st.lists(_polar, min_size=1, max_size=20).map(_to_points)
examples = settings(max_examples=150, deadline=None)


def _log_products(pts, probes, r):
    vals = []
    for z in probes:
        rho = pseudo_distance_many(z, pts)
        sel = rho[(rho > 0.5) & (rho < r)]
        vals.append(float(np.log(sel).sum()) if sel.size else 0.0)
    return vals


@given(point_sets)
@examples
def test_separation_matches_all_pairs(pts):
    i, j = np.triu_indices(pts.size, k=1)
    assert separation(PointSequence(pts)) == float(pseudo_distance_many(pts[i], pts[j]).min())


@given(point_sets, probe_sets)
@examples
def test_covering_radius_matches_all_pairs(pts, probes):
    rho = pseudo_distance_many(probes[:, None], pts[None, :])
    got = covering_radius(PointSequence(pts), 0.5, probe_points=probes)
    assert got == float(rho.min(axis=1).max())


def _annular_sums_by_scan(pts, probes, r):
    sums = []
    for z in probes:
        rho = np.sort(pseudo_distance_many(z, pts))
        csum = np.concatenate([[0.0], np.cumsum(rho)])
        idx = np.searchsorted(rho, r + 1e-12, side="right")
        sums.append(idx - csum[idx])
    return np.array(sums)


@given(point_sets, st.lists(_polar, min_size=1, max_size=120).map(_to_points),
       st.lists(st.floats(1e-3, 1.0 - 1e-6), min_size=1, max_size=4),
       st.booleans(), st.sampled_from([1, 50, 400]))
@examples
def test_uniform_density_matches_all_pairs(pts, probes, r_values, whole, block):
    # annular sums in blocks of one probe, a few and many, with ragged
    # widths and last blocks; small radii leave probes without candidates,
    # and a radius above _PSEUDO_RADIUS_MAX makes every point a candidate
    r = np.array(r_values + [1.0 - 1e-6] * whole)
    default, sequences._SUM_BLOCK = sequences._SUM_BLOCK, block
    try:
        got = sequences._annular_sums(pts, probes, r)
        est = uniform_density(PointSequence(pts), r, mode="both", probe_points=probes)
    finally:
        sequences._SUM_BLOCK = default
    sums = _annular_sums_by_scan(pts, probes, r)
    assert np.array_equal(got, sums)
    curves = sums / np.log(1.0 / (1.0 - r))[None, :]
    assert est.lower_curve == tuple(float(v) for v in curves.min(axis=0))
    assert est.upper_curve == tuple(float(v) for v in curves.max(axis=0))


def test_annular_sums_over_several_full_blocks():
    seq = ch.generate_ring_lattice(0.5, 2, 5, seed=4)
    probes = np.concatenate([sequences.probe_lattice(0.99), seq.points])
    for r in ([1e-3, 0.2], [0.5, 0.9, 1.0 - 1e-6]):
        r = np.array(r)
        assert np.array_equal(sequences._annular_sums(seq.points, probes, r),
                              _annular_sums_by_scan(seq.points, probes, r))
    # the whole-disk rows span more than one block, the last one ragged
    rows = sequences._SUM_BLOCK // len(seq)
    assert probes.size > rows and probes.size % rows


def test_whole_disk_pseudo_balls_list_every_point_without_the_tree(monkeypatch):
    pts = ch.generate_ring_lattice(0.5, 2, 4, seed=5).points
    index = spatial.PointIndex(pts)
    z = np.array([0.0, 0.3 + 0.2j, 0.9j, -0.5])
    r = np.array([1.0 - 1e-6, 0.4, 1.0 - 1e-9, 0.7])
    narrow = list(index.pseudo_balls(z[[1, 3]], r[[1, 3]]))
    queried = []
    balls = spatial.PointIndex.balls

    def counted(self, centers, radii):
        queried.append(len(centers))
        return balls(self, centers, radii)

    monkeypatch.setattr(spatial.PointIndex, "balls", counted)
    got = list(index.pseudo_balls(z, r))
    assert queried == [2]      # only the two narrow balls reach the tree
    assert np.array_equal(got[0], np.arange(pts.size)) and np.array_equal(got[2], got[0])
    assert np.array_equal(got[1], narrow[0]) and np.array_equal(got[3], narrow[1])


@given(point_sets, probe_sets, st.floats(0.5001, 1.0 - 1e-6))
@examples
def test_extremal_potentials_match_all_pairs(pts, probes, r):
    seq = PointSequence(pts)
    c_vals = _log_products(pts, probes, r)
    k = c_vals.index(max(c_vals))
    assert extremal_c(seq, r, probe_points=probes) == (c_vals[k], complex(probes[k]))
    d_vals = _log_products(pts, pts, r)
    k = d_vals.index(min(d_vals))
    assert extremal_d(seq, r) == (d_vals[k], complex(pts[k]))


@given(point_sets.flatmap(lambda pts: st.tuples(
    st.just(pts), st.lists(st.floats(1e-6, 0.6), min_size=pts.size, max_size=pts.size))))
@examples
def test_disjointness_check_matches_all_pairs(case):
    pts, p_radii = case
    centers, radii = pseudo_to_euclidean_arrays(pts, np.array(p_radii))
    dom = ChampagneDomain(centers=centers, radii=radii, pseudo_centers=pts,
                          pseudo_radii=p_radii, source_index=np.arange(pts.size),
                          truncation_R=1.0, profile_spec="explicit")
    i, j = np.triu_indices(pts.size, k=1)
    gap = np.hypot(centers.real[i] - centers.real[j], centers.imag[i] - centers.imag[j])
    gap = gap - radii[i] - radii[j]
    try:
        _check_disjoint(dom)
    except OverlapError as exc:
        k = int(np.argmin(gap))      # the first minimum is the lowest (i, j)
        assert gap[k] <= 0.0
        assert (exc.index_a, exc.index_b, exc.gap) == (i[k], j[k], gap[k])
    else:
        assert gap.min() > 0.0


def test_kd_tree_lives_in_spatial_only():
    src = pathlib.Path(ch.__file__).parent
    users = [f.name for f in sorted(src.glob("*.py")) if f.name != "spatial.py"
             and any(word in f.read_text() for word in ("cKDTree", "scipy.spatial"))]
    assert users == []


def test_walk_kernel_is_compiled_without_bit_changing_flags(tmp_path, monkeypatch):
    # contracted multiply-adds (FMA), fast-math reassociation and a
    # machine-specific vector libm each change the last bits of walk
    # positions and grid arrays, so estimates would no longer be
    # byte-identical across machines or to the array code the tests keep
    flags = _native.CFLAGS
    assert "-ffp-contract=off" in flags
    assert not {"-ffast-math", "-Ofast", "-march=native"} & set(flags)
    # the walk kernel, the grid build and the barrier potential are
    # compiled by one command
    commands = []
    monkeypatch.setattr(_native, "cache_dir", lambda: tmp_path)
    monkeypatch.setattr(_native, "_run", lambda cmd: commands.append(cmd) or "cc 0")
    _native.build()
    (compile_cmd,) = [cmd for cmd in commands if "-o" in cmd]
    assert compile_cmd[1:1 + len(flags)] == list(flags)
    assert ({pathlib.Path(a).name for a in compile_cmd if a.endswith(".c")}
            == {"_walk.c", "_grid.c", "_blaschke.c"})


def test_the_library_is_built_from_every_c_source():
    # a C file left out of SOURCES would be left out of the cache key too
    src = pathlib.Path(ch.__file__).parent
    assert sorted(path.name for path in _native.SOURCES) == sorted(f.name for f in src.glob("*.c"))
    assert all(path.parent == src for path in _native.SOURCES)


# disjoint disks: each radius is a fraction (down to point-like) of the
# largest radius that keeps it inside the unit disk and clear of every
# other disk of at most the same share
disk_sets = point_sets.flatmap(lambda pts: st.tuples(
    st.just(pts),
    st.lists(st.floats(-13.0, -0.01), min_size=pts.size, max_size=pts.size),
    st.sampled_from([64, 128, 256])))


def _disks(case):
    pts, log_frac, n_side = case
    gaps = np.abs(pts[:, None] - pts[None, :]) + np.diag(np.full(pts.size, np.inf))
    room = np.minimum(0.5 * gaps.min(axis=1), 1.0 - np.abs(pts))
    return pts.real, pts.imag, room * 10.0 ** np.array(log_frac), n_side


def _per_disk_index(cx, cy, radii, ns):
    """cell_start, cell_items and clearance built one disk at a time."""
    L, h = spatial._L, 2.0 * spatial._L / ns
    inv_h = 1.0 / h
    centers = -L + (np.arange(ns) + 0.5) * h
    occupied = np.zeros((ns, ns), dtype=bool)
    cells, disks = [], []
    for i in range(cx.size):
        x, y, r = cx[i], cy[i], radii[i]
        reach = r + 1.5 * h * math.sqrt(2.0) + 1e-12
        ix0 = max(0, int((x - reach + L) * inv_h))
        ix1 = min(ns - 1, int((x + reach + L) * inv_h))
        iy0 = max(0, int((y - reach + L) * inv_h))
        iy1 = min(ns - 1, int((y + reach + L) * inv_h))
        dx = np.abs(x - centers[ix0:ix1 + 1])[:, None]
        dy = np.abs(y - centers[iy0:iy1 + 1])[None, :]
        cand = np.hypot(np.maximum(dx - 1.5 * h, 0.0), np.maximum(dy - 1.5 * h, 0.0)) <= r
        occ = np.hypot(np.maximum(dx - 0.5 * h, 0.0), np.maximum(dy - 0.5 * h, 0.0)) <= r
        ii, jj = np.nonzero(cand)
        cells.append((ii + ix0) * ns + (jj + iy0))
        disks.append(np.full(ii.size, i, dtype=np.int32))
        oi, oj = np.nonzero(occ)
        occupied[oi + ix0, oj + iy0] = True
    cells, disks = np.concatenate(cells), np.concatenate(disks)
    order = np.lexsort((disks, cells))
    counts = np.bincount(cells[order], minlength=ns * ns)
    clearance = np.maximum((ndimage.distance_transform_edt(~occupied) - math.sqrt(2.0)) * h, 0.0)
    return (np.concatenate([[0], np.cumsum(counts)]).astype(np.int64), disks[order],
            clearance.ravel())


_GRID_ARRAYS = ("cell_start", "cell_items", "clearance", "pointlike", "enc_clearance",
                "enc_modulus")


def _assert_same_grid(got, want):
    for name in _GRID_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _assert_grid_matches_both_builds(cx, cy, radii, n_side):
    idx = spatial.DiskGridIndex(cx, cy, radii, n_side)
    start, items, clearance = _per_disk_index(idx.cx, idx.cy, idx.radii, n_side)
    assert np.array_equal(idx.cell_start, start)
    assert np.array_equal(idx.cell_items, items) and idx.cell_items.dtype == np.int32
    assert np.array_equal(idx.clearance, clearance)
    _assert_same_grid(idx, ArrayGridIndex(cx, cy, radii, n_side))
    return idx


@given(disk_sets)
@examples
def test_grid_index_matches_per_disk_build(case):
    _assert_grid_matches_both_builds(*_disks(case))


# as disk_sets, with about half of the disks point-like, on grids of 8
# cells a side (where disk boxes are clipped by the grid's edge) and 1024
# (where most point-like disks have no other surface within h)
small_and_large_grid_disk_sets = point_sets.flatmap(lambda pts: st.tuples(
    st.just(pts),
    st.lists(st.one_of(st.floats(-13.0, -9.5), st.floats(-9.5, -0.01)),
             min_size=pts.size, max_size=pts.size),
    st.sampled_from([8, 1024])))


@given(small_and_large_grid_disk_sets)
# fewer cases than the other properties: a case at n_side 1024 takes up to
# a second, most of it in the Python ring search of the array build
@settings(max_examples=20, deadline=None)
def test_grid_index_matches_both_builds_on_small_and_large_grids(case):
    _assert_grid_matches_both_builds(*_disks(case))


def test_grid_index_matches_both_builds_on_clipped_boxes_and_lone_disks():
    # disks by the rim whose candidate boxes the edge of an 8-cell grid
    # clips on every side, and at n_side 1024 point-like disks whose
    # nearest other surface lies far beyond h, found by the ring search
    pts = (1.0 - 2.0 ** -9) * np.exp(2j * np.pi * np.arange(8) / 8)
    pts = np.append(pts, [0.25 + 0.25j, -0.4j])
    radii = np.array([1e-3, 1e-10, 2e-3, 1e-12] * 2 + [1e-11, 0.05])
    for n_side in (8, 1024):
        idx = _assert_grid_matches_both_builds(pts.real, pts.imag, radii, n_side)
        _assert_encounters_match_ring_search(idx)
    assert np.any(idx.enc_clearance[idx.pointlike] > 100 * idx.h)


def test_cell_tests_call_hypot():
    # one-disk grids whose radius is the smaller of np.hypot(a, b) and
    # sqrt(a^2 + b^2), where they differ, for the offsets (a, b) of the disk
    # center beyond the 3x3 block (candidates) or the cell (occupancy)
    # around cell (40, 40): only a build that calls hypot decides as the
    # array build does
    rng = np.random.default_rng(8)
    n_side = 64
    h = 2.0 * spatial._L / n_side
    center = -spatial._L + 40.5 * h
    found = {1.5: 0, 0.5: 0}
    for off in 1e-3 + 0.05 * rng.random((4000, 2)):
        half = 1.5 if found[1.5] < 15 else 0.5
        x, y = center + half * h + off
        a = max(abs(x - center) - half * h, 0.0)
        b = max(abs(y - center) - half * h, 0.0)
        fast, exact = math.sqrt(a * a + b * b), float(np.hypot(a, b))
        if fast == exact:
            continue
        found[half] += 1
        idx = spatial.DiskGridIndex([x], [y], [min(fast, exact)], n_side)
        _assert_same_grid(idx, ArrayGridIndex([x], [y], [min(fast, exact)], n_side))
        if found[0.5] == 15:
            break
    assert found == {1.5: 15, 0.5: 15}


def _benchmark_domains(name):
    """The domains the benchmark's workloads build, at its default seed 20."""
    if name == "ladder":
        seq = ch.generate_ring_lattice(0.5, 2, 8, seed=20)
        return [(ch.build_champagne(seq, ch.parse_profile(spec), 1.0 - 2.0 ** -k), 512)
                for spec in ("expinv:1,1", "power:0.1,2") for k in (4, 6, 8)]
    if name == "floor10k":
        seq = ch.generate_ring_lattice(0.5, 5, 10, seed=20)
        return [(ch.build_champagne(seq, ch.power_profile(0.05, 2), 1.0 - 2.0 ** -10), None)]
    seq = ch.generate_ring_lattice(0.5, 2, 12, seed=20)
    return [(ch.build_finitely_connected(seq, 0j, r=1.0 - 2.0 ** -8), None)]


@pytest.mark.parametrize("name", ["ladder", "floor10k", "density12"])
def test_grid_index_matches_the_array_build_on_the_benchmark_domains(name):
    for dom, n_side in _benchmark_domains(name):
        c = dom.centers
        got = spatial.DiskGridIndex(c.real, c.imag, dom.radii, n_side)
        _assert_same_grid(got, ArrayGridIndex(c.real, c.imag, dom.radii, n_side))


@given(disk_sets, probe_sets)
@examples
def test_one_cell_query_matches_ring_search_within_h(case, probes):
    cx, cy, radii, n_side = _disks(case)
    idx = spatial.DiskGridIndex(cx, cy, radii, n_side)
    # probes on the disk surfaces too, where the distance is about 0
    for z in np.concatenate([probes, cx + radii + 1j * cy]):
        got = nearest_in_cell(idx, z.real, z.imag)
        want = nearest_surface(idx, z.real, z.imag)
        if min(got[0], want[0]) <= idx.h:
            assert got == want
        else:
            assert got[0] > idx.h and want[0] > idx.h


def _ring_search_encounters(idx):
    """enc_clearance and enc_modulus one point-like disk at a time."""
    clearance = np.zeros(idx.n_disks)
    modulus = np.zeros(idx.n_disks)
    for i in np.nonzero(idx.radii < spatial.POINTLIKE_RADIUS)[0]:
        d_other, _ = nearest_surface(idx, idx.cx[i], idx.cy[i], exclude=int(i))
        modulus[i] = math.hypot(idx.cx[i], idx.cy[i])
        clearance[i] = min(1.0 - modulus[i], d_other)
    return clearance, modulus


def _assert_encounters_match_ring_search(idx):
    clearance, modulus = _ring_search_encounters(idx)
    assert np.array_equal(idx.pointlike, idx.radii < spatial.POINTLIKE_RADIUS)
    assert np.array_equal(idx.enc_clearance, clearance)
    assert np.array_equal(idx.enc_modulus, modulus)


# as disk_sets, with about half of the disks point-like (radius < 1e-9)
pointlike_disk_sets = point_sets.flatmap(lambda pts: st.tuples(
    st.just(pts),
    st.lists(st.one_of(st.floats(-13.0, -9.5), st.floats(-9.5, -0.01)),
             min_size=pts.size, max_size=pts.size),
    st.sampled_from([64, 128, 256])))


@given(pointlike_disk_sets)
@examples
def test_encounter_data_matches_ring_search(case):
    _assert_encounters_match_ring_search(spatial.DiskGridIndex(*_disks(case)))


def test_encounter_data_matches_ring_search_on_a_truncation_rung():
    seq = ch.generate_ring_lattice(0.5, 2, 8, seed=20)
    dom = ch.build_champagne(seq, ch.parse_profile("expinv:1,1"), 1.0 - 2.0 ** -8)
    idx = dom.index
    _assert_encounters_match_ring_search(idx)
    # both ways of finding the nearest other surface are taken: within h
    # of the disk's own cell, and by the ring search beyond
    d_other = idx.enc_clearance[idx.pointlike]
    assert np.any(d_other <= idx.h) and np.any(d_other > idx.h)


def test_encounter_data_measures_near_ties_with_math_hypot():
    # a point-like disk at the origin and two more, about 0.01 away, that
    # the screen sqrt(dx^2 + dy^2) orders one way and math.hypot the other:
    # the nearer by math.hypot sets the clearance, found within h of the
    # disk's own cell (n_side 64) or by the ring search (n_side 1024)
    rng = np.random.default_rng(3)
    t = 2.0 * np.pi * rng.random(20_000)
    x, y = 0.01 * np.cos(t), 0.01 * np.sin(t)
    screen = np.sqrt(x * x + y * y)
    exact = np.array([math.hypot(u, v) for u, v in zip(x, y)])
    order = np.lexsort((exact, screen))
    k = np.flatnonzero((np.diff(screen[order]) > 0) & (np.diff(exact[order]) < 0))[0]
    a, b = order[k], order[k + 1]        # screen[a] < screen[b], exact[a] > exact[b]
    for n_side in (64, 1024):
        idx = spatial.DiskGridIndex([0.0, x[a], x[b]], [0.0, y[a], y[b]], [1e-19] * 3, n_side)
        assert idx.enc_clearance[0] == exact[b]
        _assert_encounters_match_ring_search(idx)
        _assert_same_grid(idx, ArrayGridIndex(idx.cx, idx.cy, idx.radii, n_side))


def _cell_scan_verdict(idx, sources, z):
    """The interior check by the one-cell scan: None or the error message."""
    d, i = nearest_in_cell(idx, z.real, z.imag)
    if d <= 0.0:
        return f"z={z!r} lies inside or on bubble {i} (source {sources[i]})"
    return None


@given(pointlike_disk_sets, probe_sets)
@examples
def test_interior_check_matches_the_cell_scan(case, probes):
    cx, cy, radii, n_side = _disks(case)
    c = cx + 1j * cy
    sources = 3 * np.arange(c.size) + 1
    dom = ChampagneDomain(centers=c, radii=radii, pseudo_centers=c, pseudo_radii=radii,
                          source_index=sources, truncation_R=1.0, profile_spec="explicit")
    idx = spatial.DiskGridIndex(cx, cy, radii, n_side)
    # random points, points on the bubble surfaces, and points inside
    # bubbles (point-like ones included), where the distance is about 0
    for z in np.concatenate([probes, c + radii, c - 1j * radii, c, c + 0.5 * radii]):
        z = complex(z)
        if abs(z) >= 1.0:
            continue
        try:
            dom.require_interior(z)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == _cell_scan_verdict(idx, sources, z)
    assert dom._index is None


def test_interior_check_measures_with_math_hypot():
    # one-bubble domains whose radius is the smaller of the np.hypot and
    # math.hypot distances from 0 to the center, where the two differ
    rng = np.random.default_rng(6)
    c = 0.5 * rng.random(20_000) * np.exp(2j * np.pi * rng.random(20_000))
    fast = np.hypot(-c.real, -c.imag)
    exact = np.array([math.hypot(-z.real, -z.imag) for z in c])
    cases = [(z, min(a, b), b <= a) for z, a, b in zip(c, fast, exact) if a != b][:40]
    assert {inside for _, _, inside in cases} == {True, False}
    for z, r, inside in cases:
        dom = ChampagneDomain(centers=[z], radii=[r], pseudo_centers=[z], pseudo_radii=[r],
                              source_index=[7], truncation_R=1.0, profile_spec="explicit")
        want = _cell_scan_verdict(spatial.DiskGridIndex([z.real], [z.imag], [r]), [7], 0j)
        assert (want is not None) == inside
        try:
            dom.require_interior(0j)
            assert want is None
        except ValidationError as exc:
            assert str(exc) == want
