"""The array evaluation of the shell barrier potential that the compiled
one (champagne/_blaschke.c) replaced, kept as its reference.

log_blaschke_many takes one log of hyperbolic.pseudo_distance_many per
(point, zero) pair and sums them with BLAS, in chunks of about 2e6 pairs.
array_shell_potential has the signature of barriers._shell_potential;
the two agree to 1e-12 relative, not bit for bit: the compiled kernel
takes one log per shell of a product of rho^2.
"""

import numpy as np

from champagne.hyperbolic import pseudo_distance_many


def log_blaschke_many(zeros: np.ndarray, pts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum_k w_k log rho(z, zero_k) for an array of evaluation points."""
    out = np.zeros(pts.size)
    if zeros.size == 0:
        return out
    chunk = max(1, 2_000_000 // max(zeros.size, 1))
    for i0 in range(0, pts.size, chunk):
        rho = pseudo_distance_many(pts[i0:i0 + chunk, None], zeros[None, :])
        with np.errstate(divide="ignore"):
            logs = np.log(rho)
        out[i0:i0 + chunk] = logs @ weights
    return out


def array_shell_potential(zeros, shells, weights, pts) -> np.ndarray:
    """-sum_k w_(shell k) log rho(s, zero_k) at each point s."""
    zeros = np.asarray(zeros, dtype=np.complex128)
    w_per_zero = np.array([weights[j - 1] for j in shells])
    return -log_blaschke_many(zeros, np.asarray(pts, dtype=np.complex128), w_per_zero)
