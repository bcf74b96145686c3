"""The compiled walk kernel against the array kernel it replaced, and the
loader that builds it.

pool_kernel.py keeps the array kernel as the reference: for every range
of walks the compiled kernel must return equal (==) exit codes, step
counts, path lengths and exit positions, whatever the pool width, on
random domains and on exact ties built from dyadic coordinates.
"""

import os
import stat
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import champagne as ch
from champagne import _native, spatial, walker
from champagne.errors import ChampagneError, WalkBudgetError
from champagne.walker import estimate_measure

from grid_build import cells_of
from pool_kernel import COS_COEFFS, SIN_COEFFS, direction, pool_walk_chunk

_angles = st.floats(0.0, 2.0 * np.pi)
_pointlike_radii = st.floats(-13.0, -11.0).map(lambda e: 10.0 ** e)


@st.composite
def walk_cases(draw):
    """(domain, z0, eps, seed, w0, w1, r_out) on random disjoint disks.

    A disk is point-like (radius 1e-13 to 1e-11) or takes a share of the
    room that keeps it clear of the rim and of every other disk.  One more
    point-like disk may sit 3e-10 to 2e-9 from the rim, where its
    encounters are cramped.  The walks may start close to a point-like
    disk, so that they meet it, or within 1e-9 of the cramped one.  r_out < 1
    is an absorbing circle inside the rim, as layered_crossing sets it.
    """
    n = draw(st.integers(1, 10))
    gaps = np.array(draw(st.lists(st.floats(-5.0, -0.05), min_size=n, max_size=n)))
    theta = np.array(draw(st.lists(_angles, min_size=n, max_size=n)))
    pts = (1.0 - 10.0 ** gaps) * np.exp(1j * theta)
    apart = np.abs(pts[:, None] - pts[None, :]) + np.diag(np.full(n, np.inf))
    room = np.minimum(0.5 * apart.min(axis=1), 1.0 - np.abs(pts))
    share = np.array(draw(st.lists(st.floats(-3.0, -0.01), min_size=n, max_size=n)))
    pointlike = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    tiny = np.array(draw(st.lists(_pointlike_radii, min_size=n, max_size=n)))
    radii = np.where(pointlike, tiny, room * 10.0 ** share)
    if draw(st.booleans()):
        c = (1.0 - 10.0 ** draw(st.floats(-9.5, -8.7))) * np.exp(1j * draw(_angles))
        assume(np.all(np.abs(pts - c) - radii > 1e-6))
        pts = np.append(pts, c)
        radii = np.append(radii, draw(_pointlike_radii))
    assume(np.all(radii > 0.0))
    index = spatial.DiskGridIndex(pts.real, pts.imag, radii,
                                  draw(st.sampled_from([None, 8, 64])))
    domain = types.SimpleNamespace(index=index)  # all the kernels read

    small = np.flatnonzero(index.pointlike)
    start = draw(st.sampled_from(["anywhere"] + ["near"] * bool(small.size)
                                 + ["cramped"] * (radii.size > n)))
    if start == "cramped":   # within 1e-9 of the disk by the rim
        inwards = np.exp(1j * (np.angle(pts[-1]) + draw(st.floats(-1.2, 1.2))))
        z0 = pts[-1] - 10.0 ** draw(st.floats(-10.0, -9.1)) * inwards
    elif start == "near":
        k = draw(st.sampled_from(small.tolist()))
        z0 = pts[k] + 10.0 ** draw(st.floats(-10.0, -2.0)) * np.exp(1j * draw(_angles))
    else:
        z0 = (1.0 - 10.0 ** draw(st.floats(-3.0, -0.05))) * np.exp(1j * draw(_angles))
    z0 = complex(z0)
    assume(abs(z0) < 1.0 and np.all(np.abs(pts - z0) - radii > 0.0))
    beyond = st.floats(0.05, 0.99).map(lambda f: abs(z0) + f * (1.0 - abs(z0)))
    r_out = draw(st.one_of(st.just(1.0), beyond))
    eps = min(1e-3 * index.r_min, 0.5 * index.h)
    seed = draw(st.integers(-2 ** 63, 2 ** 64 - 1))
    w0 = draw(st.integers(0, 10 ** 6))
    return domain, z0, eps, seed, w0, w0 + draw(st.integers(1, 40)), r_out


def _run(kernel, case, max_steps, **kwargs):
    domain, z0, eps, seed, w0, w1, r_out = case
    return kernel(domain, z0, eps, seed, w0, w1, max_steps, r_out, **kwargs)


def _assert_equal(got, want):
    # == on positions: the array kernel's +-0 jump of rows that do not
    # jump may flip the sign of a zero coordinate, which nothing reads
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


@given(walk_cases())
@settings(max_examples=60, deadline=None)
def test_compiled_kernel_equals_the_array_kernel(case):
    got = _run(walker._walk_chunk, case, 10 ** 6)
    for width in (walker._CHUNK, 7):
        _assert_equal(got, _run(pool_walk_chunk, case, 10 ** 6, chunk=width))


@given(walk_cases(), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_budget_error_counts_the_walks_that_reach_the_budget(case, max_steps):
    want = _run(pool_walk_chunk, case, 10 ** 6)
    failed = np.flatnonzero(want[1] >= max_steps)
    if not failed.size:
        _assert_equal(_run(walker._walk_chunk, case, max_steps), want)
        return
    with pytest.raises(WalkBudgetError) as info:
        _run(walker._walk_chunk, case, max_steps)
    assert (info.value.n_failed, info.value.max_steps) == (failed.size, max_steps)
    # the lowest-index failed walk, run alone by the array kernel, stops
    # at the same place, unless its last draw is an encounter's hit
    first = case[4] + int(failed[0])
    alone = case[:4] + (first, first + 1) + case[6:]
    try:
        steps = _run(pool_walk_chunk, alone, max_steps)[1]
    except WalkBudgetError as exc:
        assert exc.sample_position == info.value.sample_position
    else:
        assert steps[0] == max_steps


def test_the_angle_map_is_within_three_units_of_the_last_place():
    # direction is the array kernel's copy of the compiled angle map, which
    # the kernel equalities above tie to the C code
    with mpmath.workprec(100):
        taylor = [(-1) ** (n // 2) * (2 * mpmath.pi) ** n / mpmath.factorial(n)
                  for n in range(1, 17)]
        assert list(SIN_COEFFS) == [float(a) for a in taylor[0::2]]
        assert list(COS_COEFFS) == [float(a) for a in taylor[1::2]]

        c, s = direction(np.array([0.0, 0.25, 0.5, 0.75]))
        assert c.tolist() == [1.0, 0.0, -1.0, 0.0] and s.tolist() == [0.0, 1.0, 0.0, -1.0]

        # random turns, and each eighth of a turn, where |r| is largest, one
        # unit either side
        eighths = [k / 8 + d for k in range(9) for d in (-2.0 ** -53, 2.0 ** -53)]
        u = np.concatenate([np.random.default_rng(0).random(10_000),
                            [v for v in eighths if 0.0 <= v < 1.0]])
        c, s = direction(u)
        err = max(max(abs(mpmath.cos(2 * mpmath.pi * v) - cv), abs(mpmath.sin(2 * mpmath.pi * v) - sv))
                  for v, cv, sv in zip(u.tolist(), c.tolist(), s.tolist()))
    assert err <= 3 * 2.0 ** -53
    assert np.abs(s * s + c * c - 1.0).max() <= 4 * 2.0 ** -53


# -- exact ties -------------------------------------------------------------------
#
# Dyadic coordinates make the compared distances exact, so each case puts
# one comparison of the kernel on an exact tie at the start point; the
# walks then exit at once, and both kernels must take the same side.

def _tie_case(index, z0, eps, r_out=1.0):
    return types.SimpleNamespace(index=index), z0, eps, 5, 0, 3, r_out


def _assert_tie(case, code):
    got = _run(walker._walk_chunk, case, 10 ** 6)
    _assert_equal(got, _run(pool_walk_chunk, case, 10 ** 6))
    assert got[0].tolist() == [code] * 3 and got[1].tolist() == [0] * 3


def test_the_exterior_wins_a_tie_with_the_nearest_bubble():
    # 2^-20 from the rim and from the surface of a disk of radius 2^-10
    x0 = 1.0 - 2.0 ** -20
    index = spatial.DiskGridIndex([x0 - 2.0 ** -10 - 2.0 ** -20], [0.0], [2.0 ** -10])
    _assert_tie(_tie_case(index, complex(x0), 2.0 ** -19), walker._CODE_EXTERIOR)


def test_the_lower_index_wins_a_tie_between_two_bubbles():
    # 2^-8 from the surfaces of disk 0 above the origin and disk 1 to its left
    index = spatial.DiskGridIndex([0.0, -2.0 ** -7], [2.0 ** -6, 0.0], [3 * 2.0 ** -8, 2.0 ** -8])
    _assert_tie(_tie_case(index, 0j, 2.0 ** -7), 1)


def test_a_candidate_exactly_h_away_sets_the_step():
    # a disk of radius 2^-4 at the origin, h = 33/1024 beyond its surface
    index = spatial.DiskGridIndex([0.0], [0.0], [2.0 ** -4], 64)
    z0 = complex(2.0 ** -4 + index.h)
    # a sound clearance is at most the distance to every disk a cell lists,
    # so at cand == h both branches give a step of h; a clearance above h
    # tells them apart: stepping by cand (h < eps) exits, stepping by the
    # clearance (2 h > eps) would jump
    index.clearance[cells_of(index, np.array([z0.real]), np.array([z0.imag]))] = 2.0 * index.h
    _assert_tie(_tie_case(index, z0, 1.5 * index.h), 1)


# -- the loader ------------------------------------------------------------------

@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty library cache; the process loads its library again after."""
    folder = tmp_path / "cache" / "champagne"
    monkeypatch.setattr(_native, "cache_dir", lambda: folder)
    _native.library.cache_clear()
    yield folder
    _native.library.cache_clear()


def test_a_failing_compiler_is_named_with_its_stderr(fresh_cache, tmp_path, monkeypatch,
                                                     empty_domain):
    monkeypatch.setattr(_native, "COMPILER", "false")
    with pytest.raises(ChampagneError, match="'false --version' failed") as info:
        spatial.DiskGridIndex([0.5], [0.0], [0.25])
    assert "needed to build grid indexes and run walks" in str(info.value)
    with pytest.raises(ChampagneError, match="'false --version' failed"):
        estimate_measure(empty_domain, 0j, n_walks=10, epsilon=1e-6)
    # a compiler that reports its version but cannot build the kernel
    broken = tmp_path / "broken-cc"
    broken.write_text('#!/bin/sh\n[ "$1" = --version ] && exit 0\n'
                      'echo "broken-cc: cannot compile" >&2\nexit 1\n')
    broken.chmod(0o755)
    monkeypatch.setattr(_native, "COMPILER", str(broken))
    with pytest.raises(ChampagneError) as info:
        _native.build()
    assert f"{broken} -O2" in str(info.value)
    assert "broken-cc: cannot compile" in str(info.value)
    assert list(fresh_cache.iterdir()) == []  # no temporary file is left behind


def test_a_second_load_reuses_the_cached_library(fresh_cache, monkeypatch):
    commands = []
    run = _native._run
    monkeypatch.setattr(_native, "_run", lambda cmd: commands.append(cmd) or run(cmd))
    dom = ch.domain_from_pseudo([(0.5 + 0j, 0.25)])
    dom.build_index(64)                 # the first grid compiles the library
    (lib,) = fresh_cache.iterdir()
    inode = lib.stat().st_ino
    _native.library.cache_clear()
    estimate_measure(dom, 0j, n_walks=10, epsilon=1e-6)  # loads it again
    spatial.DiskGridIndex([0.5], [0.0], [0.25])
    assert _native.build() == lib and lib.stat().st_ino == inode
    assert sum("-o" in cmd for cmd in commands) == 1
    assert list(fresh_cache.iterdir()) == [lib]


def test_threads_that_need_the_library_at_once_compile_it_once(fresh_cache, monkeypatch):
    # as theorem-2 probe jobs on worker threads do when each builds the
    # first grid of a process with an empty cache
    commands = []
    run = _native._run
    monkeypatch.setattr(_native, "_run", lambda cmd: commands.append(cmd) or run(cmd))
    start = threading.Barrier(4)

    def load(_):
        start.wait(timeout=60)
        return _native.library()

    with ThreadPoolExecutor(max_workers=4) as pool:
        libs = list(pool.map(load, range(4)))
    assert all(lib is not None for lib in libs)
    assert sum("-o" in cmd for cmd in commands) == 1
    assert len(list(fresh_cache.iterdir())) == 1


def test_the_cache_directory_is_private(fresh_cache):
    fresh_cache.mkdir(parents=True)
    fresh_cache.chmod(0o755)
    _native.build()
    assert stat.S_IMODE(fresh_cache.stat().st_mode) == 0o700


def _run_fresh(script, home):
    """Runs `script` in a new interpreter whose library cache is under `home`."""
    src = str(Path(ch.__file__).parents[1])
    env = {**os.environ, "HOME": str(home),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


def test_import_and_geometry_compile_nothing(tmp_path):
    # importing compiles nothing; loading a domain checks disjointness with
    # the compiled ball query, and then its sandwich bounds and interior
    # check call no compiled code and build no walk grid
    seq = ch.generate_ring_lattice(0.5, 2, 6, seed=1)
    path = tmp_path / "domain.json"
    ch.build_champagne(seq, ch.parse_profile("power:0.1,2"), 1 - 2 ** -6).save(path)
    _run_fresh("import champagne as ch\n"
               "from champagne import _native\n"
               "assert _native.library.cache_info().misses == 0\n"
               f"dom = ch.ChampagneDomain.load({str(path)!r})\n"
               "calls = _native.library.cache_info()\n"
               "assert calls.misses == 1\n"
               "ch.sandwich_bounds(dom)\n"
               "dom.require_interior(0.1 + 0.2j)\n"
               "assert dom._index is None\n"
               "assert _native.library.cache_info() == calls\n", tmp_path)


def test_ball_queries_compile_the_library_but_build_no_walk_grid(tmp_path):
    # separation runs the compiled nearest query, the disjointness check the
    # compiled ball query
    _run_fresh("import champagne as ch\n"
               "from champagne import _native\n"
               "seq = ch.generate_ring_lattice(0.5, 2, 6, seed=1)\n"
               "assert _native.library.cache_info().misses == 0\n"
               "ch.separation(seq)\n"
               "dom = ch.build_champagne(seq, ch.parse_profile('power:0.1,2'), 1 - 2 ** -6)\n"
               "assert dom._index is None\n"
               "assert _native.library.cache_info().misses == 1\n", tmp_path)
    assert list((tmp_path / ".cache" / "champagne").glob("champagne-*.so"))
