"""Build and load the compiled library: the walk kernel (_walk.c), the
grid index build and the point queries (annular sums, a least-gap pair,
least rho: _grid.c) and the barrier potential (_blaschke.c).

The library is compiled with the system C compiler the first time one of
its functions is needed, never at import: a walk's grid index, a barrier,
and every ball or nearest query over a point set, so building a domain
(its disjointness check) and the sequence diagnostics (separation,
covering, annular sums) compile it too.  It is cached per user in
~/.cache/champagne under the sha256 of its sources, the flags and the
compiler's version, so each machine builds it once.  The library is
written to a temporary file and renamed into place: a concurrent process
never loads a half-written file, and threads of one process compile it
once.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from .errors import ChampagneError

SOURCES = tuple(Path(__file__).with_name(name) for name in ("_walk.c", "_grid.c", "_blaschke.c"))
COMPILER = "cc"
# No -ffast-math, -Ofast or -march=native: contracted multiply-adds or
# reassociated sums change the last bits of walk positions and grid
# arrays, and both must stay byte-identical to the array code the tests keep.
# The barrier potential is checked against its array code to 1e-12 relative.
CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")
LIBS = ("-lm",)
# worker threads that need the library at once compile it once: the check
# for the cached file and the compile that makes it are one step
_BUILD_LOCK = threading.Lock()


def cache_dir() -> Path:
    return Path.home() / ".cache" / "champagne"


def _run(cmd) -> str:
    """stdout of `cmd`; a ChampagneError naming it and its stderr if it fails."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise ChampagneError(f"could not run {' '.join(cmd)!r} to build the compiled library: "
                             f"{exc}") from exc
    if proc.returncode != 0:
        raise ChampagneError(
            f"{' '.join(cmd)!r} failed with exit code {proc.returncode} while building the "
            f"compiled library (a C compiler is needed to build grid indexes and run walks, to "
            f"evaluate barriers, and for the ball queries that building a domain and "
            f"diagnosing a sequence run):\n{proc.stderr}")
    return proc.stdout


def build() -> Path:
    """Path of the compiled library, compiling it unless it is cached."""
    key = hashlib.sha256(b"\0".join([*(src.read_bytes() for src in SOURCES),
                                      " ".join((*CFLAGS, *LIBS)).encode(),
                                      _run([COMPILER, "--version"]).encode()]))
    folder = cache_dir()
    folder.mkdir(mode=0o700, parents=True, exist_ok=True)
    os.chmod(folder, 0o700)  # mkdir's mode is masked by the umask
    lib = folder / f"champagne-{key.hexdigest()}.so"
    with _BUILD_LOCK:
        if not lib.exists():
            fd, tmp = tempfile.mkstemp(dir=folder, prefix="champagne-", suffix=".tmp")
            os.close(fd)
            try:
                _run([COMPILER, *CFLAGS, "-o", tmp, *map(str, SOURCES), *LIBS])
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
    return lib


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")


@functools.cache
def library() -> ctypes.CDLL:
    """The compiled library, its functions' argument types declared: ctypes
    checks each array's dtype and contiguity on every call."""
    lib = ctypes.CDLL(str(build()))
    f64, i64, i32 = _array(np.float64), _array(np.int64), _array(np.int32)
    disks = [f64, f64, f64, ctypes.c_int64]              # cx, cy, radii, their count
    grid = [ctypes.c_int64] + [ctypes.c_double] * 3      # n_side, half_width, inv_h, h
    lib.walk_range.argtypes = (
        [f64, f64, f64, i64, i32, f64, _array(np.uint8), f64, f64]          # grid index
        + grid
        + [ctypes.c_double] * 5 + [ctypes.c_uint64] + [ctypes.c_int64] * 3  # the walks
        + [i64, i64, f64, f64, f64, f64])                                    # outputs
    lib.grid_cells.argtypes = disks + grid + [i64, f64]
    lib.grid_items.argtypes = disks + grid + [i64, i32]
    lib.grid_encounters.argtypes = (disks[:3] + [i64, i32] + grid
                                    + [i64, ctypes.c_int64, f64, f64])   # pl, its count, outputs
    cells = [i64] + grid[:3]   # the point buckets' cell_start, n_side, half_width, inv_h
    lib.point_ball_sums.argtypes = ([f64, f64] + cells + [f64] * 5 + [ctypes.c_int64]  # z, balls
                                    + [f64, ctypes.c_int64, f64])                       # cuts, out
    lib.point_least_gap.argtypes = [f64, f64, i64] + cells + [f64, i64]  # px, py, order, radii, pair
    lib.point_least_gap.restype = ctypes.c_double
    lib.point_nearest.argtypes = ([f64, f64] + cells + [f64, f64, ctypes.c_int64]
                                  + [ctypes.c_int64, ctypes.c_double, f64])  # others, gap_max, out
    for fn in (lib.walk_range, lib.grid_cells, lib.grid_encounters,
               lib.point_ball_sums, lib.point_nearest):
        fn.restype = ctypes.c_int64
    lib.grid_items.restype = None
    lib.barrier_potential.argtypes = [_array(np.complex128), i64, ctypes.c_int64,
                                      _array(np.complex128), ctypes.c_int64, f64]
    lib.barrier_potential.restype = None
    return lib
