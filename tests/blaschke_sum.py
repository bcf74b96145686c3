"""The array evaluation of the shell barrier potentials that the compiled
one (champagne/_blaschke.c) replaced, kept as its reference.

log_blaschke_many takes one log of hyperbolic.pseudo_distance_many per
(point, zero) pair and sums them, in chunks of about 2e6 pairs.
array_shell_potential has the signature of barriers._shell_potential;
the two agree to 1e-12 relative, not bit for bit: the compiled kernel
takes one log per shell of a product of rho^2.
"""

import numpy as np

from champagne.hyperbolic import pseudo_distance_many


def log_blaschke_many(zeros: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum_k log rho(z, zero_k) for an array of evaluation points."""
    out = np.zeros(pts.size)
    if zeros.size == 0:
        return out
    chunk = max(1, 2_000_000 // max(zeros.size, 1))
    for i0 in range(0, pts.size, chunk):
        rho = pseudo_distance_many(pts[i0:i0 + chunk, None], zeros[None, :])
        with np.errstate(divide="ignore"):
            out[i0:i0 + chunk] = np.log(rho).sum(axis=1)
    return out


def array_shell_potential(zeros, shells, pts) -> np.ndarray:
    """The (points x shells) matrix of -sum_(k in shell j) log rho(s, zero_k)."""
    zeros = np.asarray(zeros, dtype=np.complex128)
    shells = np.asarray(shells, dtype=np.int64)
    pts = np.asarray(pts, dtype=np.complex128)
    cols = [-log_blaschke_many(zeros[shells == j], pts)
            for j in range(1, shells.max(initial=0) + 1)]
    return np.column_stack(cols) if cols else np.empty((pts.size, 0))
