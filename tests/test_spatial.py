"""Proximity queries against brute-force all-pairs scans.

Every caller of spatial.PointIndex must report exactly (==) what a scan
over all pairs reports, including for points within 1e-12 of the rim.
"""

import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import champagne as ch
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
