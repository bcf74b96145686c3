"""Build and load the compiled walk kernel (_walk.c).

The kernel is compiled with the system C compiler the first time a walk
runs, never at import, and cached per user in ~/.cache/champagne under
the sha256 of its source, the flags and the compiler's version, so each
machine builds it once.  The library is written to a
temporary file and renamed into place: a concurrent process never loads
a half-written file.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .errors import ChampagneError

SOURCE = Path(__file__).with_name("_walk.c")
COMPILER = "cc"
# No -ffast-math, -Ofast or -march=native: contracted multiply-adds or
# reassociated sums change the last bits of walk positions, and estimates
# must stay byte-identical to the array kernel the tests keep.
CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")
LIBS = ("-lm",)


def cache_dir() -> Path:
    return Path.home() / ".cache" / "champagne"


def _run(cmd) -> str:
    """stdout of `cmd`; a ChampagneError naming it and its stderr if it fails."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise ChampagneError(f"could not run {' '.join(cmd)!r} to build the walk kernel: {exc}") from exc
    if proc.returncode != 0:
        raise ChampagneError(
            f"{' '.join(cmd)!r} failed with exit code {proc.returncode} while building the "
            f"walk kernel (a C compiler is needed for walks):\n{proc.stderr}")
    return proc.stdout


def build() -> Path:
    """Path of the compiled kernel, compiling it unless it is cached."""
    key = hashlib.sha256(b"\0".join([SOURCE.read_bytes(), " ".join((*CFLAGS, *LIBS)).encode(),
                                      _run([COMPILER, "--version"]).encode()]))
    folder = cache_dir()
    folder.mkdir(mode=0o700, parents=True, exist_ok=True)
    os.chmod(folder, 0o700)  # mkdir's mode is masked by the umask
    lib = folder / f"walk-{key.hexdigest()}.so"
    if not lib.exists():
        fd, tmp = tempfile.mkstemp(dir=folder, prefix="walk-", suffix=".tmp")
        os.close(fd)
        try:
            _run([COMPILER, *CFLAGS, "-o", tmp, str(SOURCE), *LIBS])
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")


@functools.cache
def walk_kernel() -> ctypes.CDLL:
    """The compiled kernel, its walk_range's argument types declared: ctypes
    checks each array's dtype and contiguity on every call."""
    lib = ctypes.CDLL(str(build()))
    fn = lib.walk_range
    f64, i64 = _array(np.float64), _array(np.int64)
    fn.argtypes = (
        [f64, f64, f64, i64, _array(np.int32), f64, _array(np.uint8), f64, f64]  # grid index
        + [ctypes.c_int64] + [ctypes.c_double] * 3                               # grid geometry
        + [ctypes.c_double] * 6 + [ctypes.c_uint64] + [ctypes.c_int64] * 3       # the walks
        + [i64, i64, f64, f64, f64, f64])                                        # outputs
    fn.restype = ctypes.c_int64
    return lib
