"""The array evaluation of the charge matrix that the compiled one
(champagne/_blaschke.c) replaced, kept as its reference.

log_blaschke_many takes one log of hyperbolic.pseudo_distance_many per
(point, zero) pair and sums them, in chunks of about 2e6 pairs.
array_charge_matrix has the signature of barriers._charge_matrix; the
two agree to 1e-12 relative, not bit for bit: the compiled kernel takes
one log per group of a product of rho^2.
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


def array_charge_matrix(zeros, groups, pts) -> np.ndarray:
    """The (points x groups) matrix of -sum_(k in group j) log rho(s, zero_k)."""
    zeros = np.asarray(zeros, dtype=np.complex128)
    groups = np.asarray(groups, dtype=np.int64)
    pts = np.asarray(pts, dtype=np.complex128)
    cols = [-log_blaschke_many(zeros[groups == j], pts)
            for j in range(groups.max(initial=-1) + 1)]
    return np.column_stack(cols) if cols else np.empty((pts.size, 0))
