"""Proximity queries against brute-force all-pairs scans.

Every caller of spatial.PointIndex must report exactly (==) what a scan
over all pairs reports, including for points within 1e-12 of the rim.
The disk grid index must equal a per-disk construction and its one-cell
query the ring search.
"""

import math
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import champagne as ch
from champagne import spatial
from champagne.barriers import extremal_c, extremal_d
from champagne.domains import ChampagneDomain, _check_disjoint
from champagne.errors import OverlapError
from champagne.hyperbolic import pseudo_distance_many, pseudo_to_euclidean_arrays
from champagne.sequences import PointSequence, covering_radius, separation, uniform_density

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


@given(point_sets, probe_sets, st.lists(st.floats(1e-3, 1.0 - 1e-6), min_size=1, max_size=4))
@examples
def test_uniform_density_matches_all_pairs(pts, probes, r_values):
    r = np.array(r_values)
    sums = []
    for z in probes:
        rho = np.sort(pseudo_distance_many(z, pts))
        csum = np.concatenate([[0.0], np.cumsum(rho)])
        idx = np.searchsorted(rho, r + 1e-12, side="right")
        sums.append(idx - csum[idx])
    curves = np.array(sums) / np.log(1.0 / (1.0 - r))[None, :]
    est = uniform_density(PointSequence(pts), r_values, mode="both", probe_points=probes)
    assert est.lower_curve == tuple(float(v) for v in curves.min(axis=0))
    assert est.upper_curve == tuple(float(v) for v in curves.max(axis=0))


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


@given(disk_sets, st.sampled_from([1, 50, spatial._BUILD_BLOCK]))
@examples
def test_grid_index_matches_per_disk_build(case, block):
    cx, cy, radii, n_side = _disks(case)
    default, spatial._BUILD_BLOCK = spatial._BUILD_BLOCK, block  # blocks of one disk, a few, all
    try:
        idx = spatial.DiskGridIndex(cx, cy, radii, n_side)
    finally:
        spatial._BUILD_BLOCK = default
    start, items, clearance = _per_disk_index(cx, cy, radii, n_side)
    assert np.array_equal(idx.cell_start, start)
    assert np.array_equal(idx.cell_items, items) and idx.cell_items.dtype == np.int32
    assert np.array_equal(idx.clearance, clearance)


@given(disk_sets, probe_sets)
@examples
def test_one_cell_query_matches_ring_search_within_h(case, probes):
    cx, cy, radii, n_side = _disks(case)
    idx = spatial.DiskGridIndex(cx, cy, radii, n_side)
    # probes on the disk surfaces too, where the distance is about 0
    for z in np.concatenate([probes, cx + radii + 1j * cy]):
        got = idx.nearest_in_cell(z.real, z.imag)
        want = idx.nearest_surface(z.real, z.imag)
        if min(got[0], want[0]) <= idx.h:
            assert got == want
        else:
            assert got[0] > idx.h and want[0] > idx.h
