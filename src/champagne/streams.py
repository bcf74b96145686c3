"""Counter-based random streams for reproducible Monte Carlo.

Every walk owns a stream addressed by (seed, walk_index), and the value at
counter t is a pure function of (seed, walk_index, t).  Results therefore
cannot depend on scheduling, batching, or worker count.  The generator is
the SplitMix64 finalizer applied to a per-stream key plus a Weyl increment;
it is cheap enough to evaluate vectorized once per step for a whole batch.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53

# uint64 constants for the vectorized path
_V_GOLDEN = np.uint64(_GOLDEN)
_V_MIX_A = np.uint64(_MIX_A)
_V_MIX_B = np.uint64(_MIX_B)
_V30 = np.uint64(30)
_V27 = np.uint64(27)
_V31 = np.uint64(31)
_V11 = np.uint64(11)
_V1 = np.uint64(1)


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _U64
    z = ((z ^ (z >> 30)) * _MIX_A) & _U64
    z = ((z ^ (z >> 27)) * _MIX_B) & _U64
    return (z ^ (z >> 31)) & _U64


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    # uint64 wraparound is the point; array arithmetic wraps silently,
    # only numpy scalar arithmetic warns (callers silence it for scalars)
    z = (z ^ (z >> _V30)) * _V_MIX_A
    z = (z ^ (z >> _V27)) * _V_MIX_B
    return z ^ (z >> _V31)


def derive_seed(seed: int, *parts) -> int:
    """Fold tags (ints or strings) into a seed, deterministically.

    Used to give sub-computations (pilot runs, per-probe estimates, ring
    phases) independent streams without the caller tracking counters.
    """
    acc = mix64(int(seed) & _U64)
    for p in parts:
        if isinstance(p, str):
            h = hashlib.blake2b(p.encode("utf-8"), digest_size=8).digest()
            tag = int.from_bytes(h, "big")
        else:
            tag = int(p) & _U64
        acc = mix64((acc ^ mix64((tag * _GOLDEN) & _U64)) & _U64)
    return acc


def stream_keys(seed: int, walk_indices: np.ndarray) -> np.ndarray:
    """The stream key of each walk index under `seed` (uint64)."""
    w = np.asarray(walk_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = _mix64_vec((w + _V1) * _V_GOLDEN)
        return _mix64_vec(keys ^ np.uint64(int(seed) & _U64))


def uniforms_at(keys: np.ndarray, t) -> np.ndarray:
    """The uniform in [0, 1) at counter `t` of each stream key.

    `t` may be a scalar or an array aligned with `keys`.
    """
    tt = np.array(t, dtype=np.uint64, ndmin=1)  # an array, so the products wrap silently
    v = _mix64_vec(keys + (tt + _V1) * _V_GOLDEN)
    return (v >> _V11).astype(np.float64) * _INV_2_53
