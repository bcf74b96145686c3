"""Proximity queries against brute-force all-pairs scans.

Every caller of spatial.PointIndex must report exactly (==) what a scan
over all pairs reports, including for points within 1e-12 of the rim;
annular sums, what that scan adds in the index's bucket order.
The compiled disk grid index must equal a per-disk construction and the
array build it replaced (grid_build.py); over its candidate lists the
one-cell query must equal the ring search within h, and its encounter
data the ring search; the interior check must equal the one-cell scan it
replaced.
"""

import ast
import ctypes
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import champagne as ch
from champagne import _native, sequences, spatial
from champagne.domains import ChampagneDomain, _check_disjoint
from champagne.errors import OverlapError, ValidationError
from champagne.hyperbolic import pseudo_distance_many
from champagne.sequences import PointSequence, covering_radius, separation, uniform_density

from conftest import euclidean_domain
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


def test_pseudo_nearest_ends_after_the_whole_disk_round():
    # a nearly antipodal pair by the rim: its rho rounds to 1, never above,
    # and the nearest search reports it after a search over the whole disk
    z = np.array([0.998066103210284 + 0.06216150074871263j])
    pts = np.array([-0.9980218895065883 - 0.06286738420552307j])
    index = spatial.PointIndex(pts)
    assert index.pseudo_nearest(z)[0] == pseudo_distance_many(z, pts)[0] == 1.0
    assert covering_radius(PointSequence(pts), 0.5, probe_points=z) == 1.0


def test_the_nearest_search_matches_the_scan_on_a_pair_1e_200_apart():
    # the pair's |z - w|^2 underflows: the search takes hypot, as the scan does
    pts = np.array([0.4j, 0.4j + 1e-200, -0.3 + 0.1j, 0.5])
    i, j = np.triu_indices(pts.size, k=1)
    scan = pseudo_distance_many(pts[i], pts[j])
    assert separation(PointSequence(pts)) == float(scan.min()) > 0.0
    z = np.array([0.4j + 3e-200, 0.4j - 1e-160, 0.5 + 1e-200j])
    want = pseudo_distance_many(z[:, None], pts[None, :]).min(axis=1)
    assert np.array_equal(spatial.PointIndex(pts).pseudo_nearest(z), want)
    assert np.all(want > 0.0) and np.all(want < 1e-150)


def test_separation_takes_the_whole_disk_path_for_a_wide_pair():
    pts = np.array([0.999999 + 0j, -0.999999 + 1e-3j])
    rho = float(pseudo_distance_many(pts[0], pts[1]))
    assert separation(PointSequence(pts)) == rho


def test_separation_of_a_circle_near_the_rim_reduces_block_by_block():
    # every pair lies within 1e-12 of rho = 1, where the screen's slack
    # nearly reaches the gap to 1; memory stays at one block of candidates
    n = 3000
    pts = (1.0 - 1e-9) * np.exp(2j * np.pi * np.arange(n) / n)
    exact = min(float(pseudo_distance_many(pts[k], pts[k + 1:]).min()) for k in range(n - 1))
    separation(PointSequence(pts[:2]))     # the library is loaded outside the window
    tracemalloc.start()
    try:
        got = separation(PointSequence(pts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exact > spatial._PSEUDO_RADIUS_MAX
    assert got == exact
    assert peak <= 50 * 2 ** 20


def test_the_nearest_search_stays_local_on_a_circle_near_the_rim():
    # 3,000 points on |z| = 1 - 1e-8 and probes halfway between them: every
    # pair has rho within 1e-9 of 1, yet each query reads only the points
    # near it, and covering holds no more than a few blocks in memory
    n = 3000
    pts = (1.0 - 1e-8) * np.exp(2j * np.pi * np.arange(n) / n)
    probes = (1.0 - 1e-8) * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
    exact_sep = min(float(pseudo_distance_many(pts[k], pts[k + 1:]).min()) for k in range(n - 1))
    exact_cover = max(float(pseudo_distance_many(z, pts).min()) for z in probes)
    seq = PointSequence(pts)
    assert separation(seq) == exact_sep
    covering_radius(PointSequence(pts[:2]), 0.5, probe_points=probes[:2])  # loads the library
    tracemalloc.start()
    try:
        got = covering_radius(seq, 0.5, probe_points=probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == exact_cover
    assert peak <= 50 * 2 ** 20
    # the queries of an arc of 100 points and probes read no point 100
    # spacings (about six cells of the point grid) beyond it: their answers stay
    # exact with every such point moved onto the probes in the bucket
    # arrays, where a scan would find rho 0 for every probe
    arc_pts, arc_probes = pts[:100], probes[:100]
    index = spatial.PointIndex(pts)
    far = np.abs(index.px + 1j * index.py - arc_pts[50]) > 150 * 2.0 * np.pi / n
    assert far.sum() > n // 2
    index.px[far] = np.resize(arc_probes.real, far.sum())
    index.py[far] = np.resize(arc_probes.imag, far.sum())
    poisoned = index.px + 1j * index.py
    assert np.all(pseudo_distance_many(arc_probes[:, None], poisoned[None, :]).min(axis=1) == 0.0)
    rho = pseudo_distance_many(arc_pts[:, None], pts[None, :])
    rho[np.arange(100), np.arange(100)] = np.inf
    assert np.array_equal(index.pseudo_nearest(arc_pts, others=True), rho.min(axis=1))
    assert np.array_equal(index.pseudo_nearest(arc_probes),
                          pseudo_distance_many(arc_probes[:, None], pts[None, :]).min(axis=1))


def test_covering_radius_refuses_a_probe_outside_the_disk():
    # the nearest search serves points of the open disk, so a probe on or
    # beyond the circle, or NaN, is refused before the search; a query on a
    # point finds it at rho 0
    seq = ch.generate_ring_lattice(0.5, 2, 4, seed=5)
    for probe in (1.5, 2.0 + 1j, complex(math.nan, 0.0), 1.0 - 1e-15):
        with pytest.raises(ValidationError, match="probe=.* is not inside the open unit disk"):
            covering_radius(seq, 0.5, probe_points=[0.1j, probe])
    pts = seq.points
    z = pts[::7]
    want = pseudo_distance_many(z[:, None], pts[None, :]).min(axis=1)
    got = spatial.PointIndex(pts).pseudo_nearest(z)
    assert np.array_equal(got, want)
    assert np.all(got == 0.0)


def test_separation_and_covering_match_all_pairs_on_a_shuffled_lattice():
    seq = ch.generate_ring_lattice(0.5, 2, 8, seed=20)
    pts = np.random.default_rng(20).permutation(seq.points)
    i, j = np.triu_indices(pts.size, k=1)
    assert separation(PointSequence(pts)) == float(pseudo_distance_many(pts[i], pts[j]).min())
    probes = sequences.probe_lattice(0.99)
    nearest = pseudo_distance_many(probes[:, None], pts[None, :]).min(axis=1)
    assert np.array_equal(spatial.PointIndex(pts).pseudo_nearest(probes), nearest)
    assert covering_radius(PointSequence(pts), 0.99) == float(nearest.max())


def _annular_sums_in_bucket_order(pts, probes, r):
    """The annular sums as point_ball_sums adds them: each 1 - rho, taken
    over the points in PointIndex bucket order, goes into the bin of the
    least cut it lies within (the lowest index among equal cuts), and each
    cut adds the bins of the cuts up to it in index order (np.cumsum adds
    left to right)."""
    cuts = r + 1e-12
    ordered = pts[spatial.PointIndex(pts).order]
    sums = np.zeros((probes.size, cuts.size))
    for q, z in enumerate(probes):
        rho = pseudo_distance_many(z, ordered)
        least = np.full(rho.size, -1)
        for k, cut in enumerate(cuts):
            least[(rho <= cut) & ((least < 0) | (cut < cuts[least]))] = k
        bins = np.array([np.cumsum(1.0 - rho[least == k])[-1] if np.any(least == k) else 0.0
                         for k in range(cuts.size)])
        for k, cut in enumerate(cuts):
            sums[q, k] = np.cumsum(bins[cuts <= cut])[-1]
    return sums


@given(point_sets, st.lists(_polar, min_size=1, max_size=120).map(_to_points),
       st.lists(st.floats(1e-3, 1.0 - 1e-6) | st.just(1.0 - 1e-9), min_size=1, max_size=4),
       st.booleans())
@examples
def test_uniform_density_matches_all_pairs(pts, probes, r_values, whole):
    # cuts in any order; small radii leave probes without hits, and a
    # radius above _PSEUDO_RADIUS_MAX scans every point
    r = np.array(r_values + [1.0 - 1e-6] * whole)
    got = sequences._annular_sums(pts, probes, r)
    est = uniform_density(PointSequence(pts), r, mode="both", probe_points=probes)
    sums = _annular_sums_in_bucket_order(pts, probes, r)
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
                              _annular_sums_in_bucket_order(seq.points, probes, r))


def test_an_annular_sum_scans_every_cell_its_ball_reaches():
    # five points make a 4 x 4 bucket grid with a cell edge at x = L / 2;
    # the pseudo ball about 0 is the disk of radius r, and the point just
    # inside it on the x axis lies past that edge
    r = 0.5157
    assert spatial._L / 2 < r * (1.0 - 1e-6) and r * (1.0 - 1e-3) < spatial._L / 2
    pts = np.array([r * (1.0 - 1e-6), -0.5, 0.5j, -0.5j, 0.1])
    probes = np.array([0j])
    assert spatial.PointIndex(pts).n_side == 4
    got = sequences._annular_sums(pts, probes, np.array([r]))
    assert np.array_equal(got, _annular_sums_in_bucket_order(pts, probes, np.array([r])))
    assert got[0, 0] == pytest.approx(5 - np.abs(pts).sum())   # every point is a hit


def test_annular_sums_are_within_gamma_of_the_exact_sum():
    # m terms 1 - rho >= 0 added through c bins lie within gamma(m + c + 1)
    # = n u / (1 - n u), n = m + c + 1, u = 2^-53, of their exactly rounded
    # sum, on every default probe of the whole-disk cut of the depth-8
    # lattice and the floor cuts of the depth-10 one; count - sum(rho),
    # which cancels, missed the whole-disk sums by up to 1.0e-12 against a
    # bound of 1.1e-13
    u = 2.0 ** -53
    for depth, r in ((8, [0.9, 1.0 - 1e-6]), (10, [0.9, 0.99])):
        seq = ch.generate_ring_lattice(0.5, 2, depth, seed=20)
        probes = np.concatenate([sequences.probe_lattice(seq.max_modulus), seq.points])
        got = sequences._annular_sums(seq.points, probes, np.array(r))
        cuts = np.array(r) + 1e-12
        for q, z in enumerate(probes):
            rho = pseudo_distance_many(z, seq.points)
            for k, cut in enumerate(cuts):
                terms = 1.0 - rho[rho <= cut]
                n = terms.size + cuts.size + 1
                exact = math.fsum(terms)
                assert abs(got[q, k] - exact) <= n * u / (1.0 - n * u) * exact, (depth, q, k)


def test_whole_disk_annular_sums_hold_bounded_memory():
    # 6,272 probes whose second cut is the whole disk, so every point is a
    # hit of every probe: the sums never hold all 6.4 million pairs (51 MB
    # of int64 indices alone)
    seq = ch.generate_ring_lattice(0.5, 2, 8, seed=20)
    r = [0.9, 1.0 - 1e-6]
    uniform_density(seq, r, mode="both")    # the library is loaded outside the window
    tracemalloc.start()
    try:
        uniform_density(seq, r, mode="both")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


@given(point_sets.flatmap(lambda pts: st.tuples(
    st.just(pts), st.lists(st.floats(1e-6, 0.6), min_size=pts.size, max_size=pts.size))))
@examples
def test_disjointness_check_matches_all_pairs(case):
    pts, p_radii = case
    dom = ChampagneDomain(pts, p_radii, np.arange(pts.size), truncation_R=1.0,
                          profile_spec="explicit")
    centers, radii = dom.centers, dom.radii
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


def test_an_exact_overlap_tie_names_the_pair_of_lower_domain_indices():
    # four mirror images of one overlapping pair have equal gaps.  Pair
    # (0, 1) is neither the first nor the last that the grid's cell order
    # meets, and the source indices run the other way, so the error must
    # name domain indices (0, 1), the rule the all-pairs scan keeps
    c = np.array([0.3 + 0.3j, 0.4 + 0.3j])
    dom = ChampagneDomain(np.concatenate([-c.conj(), -c, c, c.conj()]), np.full(8, 0.1),
                          np.arange(8)[::-1], truncation_R=1.0, profile_spec="explicit")
    x, y, r = dom.centers.real, dom.centers.imag, dom.radii
    i, j = np.triu_indices(8, k=1)
    gaps = np.hypot(x[i] - x[j], y[i] - y[j]) - r[i] - r[j]
    assert np.count_nonzero(gaps == gaps.min()) == 4 and gaps.min() < 0.0
    with pytest.raises(OverlapError) as exc:
        _check_disjoint(dom)
    assert (exc.value.index_a, exc.value.index_b, exc.value.gap) == (7, 6, gaps[0])


def test_no_module_loads_scipy_spatial():
    src = pathlib.Path(ch.__file__).parent
    users = [f.name for f in sorted(src.glob("*.py"))
             if any(word in f.read_text() for word in ("cKDTree", "scipy.spatial"))]
    assert users == []
    # the sequence diagnostics run on the bucket grid alone
    script = ("import sys\n"
              "import champagne as ch\n"
              "seq = ch.generate_ring_lattice(0.5, 2, 12, seed=20)\n"
              "ch.sequences.diagnose(seq)\n"
              "ch.sequences.covering_radius(seq, 0.9)\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_no_module_imports_a_name_it_never_uses():
    src = pathlib.Path(ch.__file__).parent
    unused = {}
    for f in sorted(src.glob("*.py")):
        if f.name == "__init__.py":     # the package namespace re-exports its imports
            continue
        tree = ast.parse(f.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if imported - used:
            unused[f.name] = sorted(imported - used)
    assert unused == {}


def test_no_module_loads_scipy(tmp_path):
    src = pathlib.Path(ch.__file__).parent
    users = [f.name for f in sorted(src.rglob("*"))
             if f.is_file() and f.suffix != ".pyc" and "scipy" in f.read_text()]
    assert users == []
    # the sequence diagnostics, the criterion and every domain build run
    # with scipy blocked: importing it raises
    table = tmp_path / "table.csv"
    t = np.linspace(0.01, 0.99, 50)
    np.savetxt(table, np.column_stack([t, 0.1 * (1 - t) ** 2]), delimiter=",",
               header="t,phi", comments="")
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "import champagne as ch\n"
              "from champagne.cli import main\n"
              "seq = ch.generate_ring_lattice(0.5, 2, 12, seed=20)\n"
              "ch.sequences.diagnose(seq)\n"
              "ch.sequences.covering_radius(seq, 0.9)\n"
              "small = ch.generate_ring_lattice(0.5, 1, 4, seed=0)\n"
              "R = 1 - 2.0 ** -3\n"
              f"for spec in ('const:0.05', 'power:0.1,2', 'expinv:1,1', 'table:{table}'):\n"
              f"    assert main(['criterion', '--profile', spec, '-o', '{tmp_path / 'c.json'}']) == 0\n"
              "    prof = ch.parse_profile(spec)\n"
              "    dom = ch.build_champagne(small, prof, R)\n"
              "    assert dom.n_bubbles == 14\n"
              "    assert dom.meta['tail_integral_from_R'] == ch.domains.criterion_tail_integral(prof, R)\n"
              "print('ok')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "ok"


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


def test_the_c_sources_compile_without_warnings():
    # a dead static helper or an unused parameter fails the suite
    proc = subprocess.run([_native.COMPILER, "-std=c99", "-Wall", "-Wextra", "-Werror",
                           "-fsyntax-only", *map(str, _native.SOURCES)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_c_sources_call_no_libm_trig():
    # a jump direction is a quarter turn plus a polynomial: libm's sin and
    # cos differ in the last bits between platforms
    trig = re.compile(r"(?<![\w.])(?:__builtin_)?(?:sin|cos|sincos)[fl]?\s*\(")
    assert [path.name for path in _native.SOURCES if trig.search(path.read_text())] == []


# a function defined at file scope, not static: its return type, name and
# parameter list (no C source here takes a function pointer)
_C_FUNCTION = re.compile(r"^(?!static\b)([A-Za-z_][\w ]*?)\s*\b(\w+)\(([^)]*)\)\s*\{",
                         re.MULTILINE)


def test_every_exported_c_function_has_its_ctypes_declaration():
    # a stale argtypes list would pass wrong arguments and corrupt memory
    # instead of failing, so each function's parameters and return type
    # are checked against its C definition
    lib = _native.library()
    scalars = {"int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64, "double": ctypes.c_double}
    results = {"void": None, **scalars}
    seen = []
    for path in _native.SOURCES:
        for ret, name, params in _C_FUNCTION.findall(path.read_text()):
            seen.append(name)
            fn = getattr(lib, name)
            assert fn.restype is results[ret.strip()], name
            params = [] if params.strip() in ("", "void") else params.split(",")
            assert fn.argtypes is not None and len(fn.argtypes) == len(params), name
            for param, declared in zip(params, fn.argtypes):
                if "*" in param:     # an array: numpy checks its dtype and layout
                    assert hasattr(declared, "_dtype_"), (name, param)
                else:
                    assert declared is scalars[param.split()[0]], (name, param)
    assert sorted(seen) == ["barrier_potential", "grid_cells", "grid_encounters", "grid_items",
                            "point_ball_sums", "point_least_gap", "point_nearest", "walk_range"]


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
# fewer cases than the other properties: a case at n_side 1024 is the
# slowest, most of it in the ring searches of the array build
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
        modulus[i] = np.hypot(idx.cx[i], idx.cy[i])
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


def test_the_encounter_search_goes_on_past_a_ring_with_a_farther_disk():
    # point-like disks at a cell center and 1.4 h off on both axes, which
    # its own cell lists, and one 1.6 h off on one axis, which only the
    # next ring lists: that one is nearer and sets the clearance
    n_side = 64
    h = 2.0 * spatial._L / n_side
    c = -spatial._L + 40.5 * h
    idx = spatial.DiskGridIndex([c, c + 1.4 * h, c + 1.6 * h], [c, c + 1.4 * h, c],
                                [1e-12] * 3, n_side)
    assert idx.enc_clearance[0] == np.hypot(c - idx.cx[2], 0.0) - 1e-12
    _assert_encounters_match_ring_search(idx)


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
    dom = euclidean_domain(c, radii, sources)
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


def test_interior_check_measures_with_np_hypot():
    # one-bubble domains whose radius is the smaller of the np.hypot and
    # math.hypot distances from 0 to the center, where the two differ: 0
    # lies on the bubble exactly where np.hypot gives the smaller distance
    rng = np.random.default_rng(6)
    c = 0.5 * rng.random(20_000) * np.exp(2j * np.pi * rng.random(20_000))
    libm = np.hypot(-c.real, -c.imag)
    python = np.array([math.hypot(-z.real, -z.imag) for z in c])
    cases = [(z, min(a, b), a < b) for z, a, b in zip(c, libm, python) if a != b][:40]
    assert {inside for _, _, inside in cases} == {True, False}
    for z, r, inside in cases:
        dom = euclidean_domain([z], [r], [7])
        want = _cell_scan_verdict(spatial.DiskGridIndex([z.real], [z.imag], [r]), [7], 0j)
        assert (want is not None) == inside
        try:
            dom.require_interior(0j)
            assert want is None
        except ValidationError as exc:
            assert str(exc) == want


def test_no_surface_distance_but_hypot_is_left_in_src():
    # one surface distance outside the walk kernel: np.hypot and libm hypot
    src = pathlib.Path(ch.__file__).parent
    words = ("math.hypot", "_surface_distances", "_HYPOT_SLACK", "grid_near_others")
    found = {(f.name, w) for f in sorted(src.rglob("*")) if f.suffix in (".py", ".c")
             for w in words if w in f.read_text()}
    assert found == set()


def test_no_point_query_returns_candidates():
    # each query over a point set returns its answer, not candidate lists
    src = pathlib.Path(ch.__file__).parent
    words = ("point_balls", "pseudo_balls", "def balls", "_BALL_BLOCK", "_SUM_BLOCK", "def pairs")
    found = {(f.name, w) for f in sorted(src.rglob("*")) if f.suffix in (".py", ".c")
             for w in words if w in f.read_text()}
    assert found == set()


def test_no_compiled_query_sorts():
    # an annular sum needs no order, so no C source sorts: no qsort and no
    # comparison function for one
    src = pathlib.Path(ch.__file__).parent
    found = {(f.name, w) for f in sorted(src.glob("*.c"))
             for w in ("qsort", "ascending") if w in f.read_text()}
    assert found == set()


def test_no_compiled_path_serves_inputs_that_cannot_reach_it():
    # walks have one absorbing circle, r_out, and point queries take points
    # of the open disk, so no NaN reaches the compiled code (the CLI's JSON
    # writer still spells out a NaN result, in Python)
    src = pathlib.Path(ch.__file__).parent
    words = {".py": ("absorbing_shell", "CODE_SHELL"),
             ".c": ("absorbing_shell", "CODE_SHELL", "least(", "isnan(")}
    found = {(f.name, w) for f in sorted(src.rglob("*")) if f.suffix in words
             for w in words[f.suffix] if w in f.read_text()}
    assert found == set()


def test_a_grid_side_below_1_is_refused():
    for n_side in (0, -4):
        with pytest.raises(ValidationError, match="n_side must be at least 1"):
            spatial.DiskGridIndex([0.5], [0.0], [0.25], n_side)
    dom = euclidean_domain([0.5], [0.25], [0])
    with pytest.raises(ValidationError, match="n_side must be at least 1"):
        dom.build_index(0)
    # None alone means the automatic size
    assert spatial.DiskGridIndex([0.5], [0.0], [0.25]).n_side == spatial._auto_n_side(1)
    assert spatial.DiskGridIndex([0.5], [0.0], [0.25], 1).n_side == 1
