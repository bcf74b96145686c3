"""Exact spatial queries: a kd-tree over points and a grid over disks.

PointIndex answers the nearest-point and within-radius queries on point
sets (separation, covering, annular sums, disjointness, extremal
potentials).  A pseudo ball {w : rho(z, w) <= r} is exactly a Euclidean
disk, so it too is a ball query; a pseudo ball wider than
_PSEUDO_RADIUS_MAX is the whole disk and lists every point without a
tree query.  Queries yield candidates, a superset of the answer that
callers filter with their own distance formula, so every value equals
that of a brute-force scan.

nearest_disk is the exact nearest disk surface to one point by a single
vectorised scan over all disks; it needs no grid, which is what a
one-point query (is this start point interior, how far is the boundary?)
should cost.  It is the package's one nearest-disk query.

DiskGridIndex, a uniform grid over disjoint disks, holds what the walk
kernel (_walk.c) reads:

* per-cell candidate lists: every disk intersecting the 3x3 cell block
  around a cell.  If the candidate minimum is <= the cell size h, it is
  the exact nearest-surface distance (any closer disk would intersect
  the block and hence be listed);
* a conservative per-cell clearance (from an exact Euclidean distance
  transform of the rasterized disks) that lower-bounds the distance to
  every disk, giving large safe steps in disk-free regions.

The compiled library (_grid.c, built by _native on the first grid)
builds the candidate lists and the clearance, with the arithmetic of the
array build the tests keep as the reference.  It also screens the
encounter data of point-like disks (their clearance to the rest of the
boundary): a ring search over the grid from each such disk lists the
other disks that may attain its nearest surface, and Python measures
those.

Every surface distance is math.hypot(dx, dy) - r; np.hypot and the
square root of the sum of squares, which differ from math.hypot in the
last bits on some inputs, only screen which disks can attain the minimum.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from . import _native
from .errors import ValidationError
from .hyperbolic import pseudo_to_euclidean_arrays

# grid covers [-L, L]^2; slightly beyond the closed disk so that points
# pushed past |z| = 1 by rounding still index into a valid cell
_L = 1.03125

# Disks below this radius cannot be resolved by epsilon-shell walking in
# double precision (the shell collides with the coordinate lattice); the
# walker handles encounters with them through the exact annulus formula
# instead, using the clearance to the rest of the boundary.
POINTLIKE_RADIUS = 1e-9


# Candidate slack of a pseudo ball.  A point with computed rho(z, w) <= r
# lies at most 2.7e-11 outside the computed Euclidean realization of
# {rho(z, .) <= r} (measured for gaps 1 - |z| down to 1e-12 and r up to
# _PSEUDO_RADIUS_MAX).  That error grows like 1e-16 / (1 - r), so wider
# pseudo balls are taken to be the whole disk.
_PSEUDO_SLACK = 1e-9
_PSEUDO_RADIUS_MAX = 1.0 - 1e-5
_QUERY_BLOCK = 128  # ball queries per tree call: bounds the candidate lists held at once
# np.hypot differs from math.hypot by at most an ulp, and the screen of
# _grid.c, sqrt(dx^2 + dy^2) - r, by under 3e-15 (every distance in the
# grid's square is below 3, where an ulp is 4.4e-16); a disk whose screened
# distance is within this slack of the screened minimum may attain the
# math.hypot minimum and is measured again
_HYPOT_SLACK = 1e-14


class PointIndex:
    """kd-tree over points of the plane; ball queries yield, query by
    query, the sorted indices of the candidate points."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.complex128)
        self._tree = cKDTree(np.column_stack([pts.real, pts.imag]))

    def nearest(self, z, k: int = 1) -> np.ndarray:
        """Index of the k-th Euclidean nearest point to each query."""
        z = np.asarray(z, dtype=np.complex128)
        return self._tree.query(np.column_stack([z.real, z.imag]), k=[k])[1][:, 0]

    def balls(self, centers, radii):
        """Points p with |centers[q] - p| <= radii[q], for each query q."""
        c = np.asarray(centers, dtype=np.complex128)
        r = np.broadcast_to(np.asarray(radii, dtype=np.float64), c.shape)
        xy = np.column_stack([c.real, c.imag])
        for i0 in range(0, c.size, _QUERY_BLOCK):
            block = slice(i0, i0 + _QUERY_BLOCK)
            for hit in self._tree.query_ball_point(xy[block], r[block], return_sorted=True):
                yield np.array(hit, dtype=np.int64)

    def pseudo_balls(self, z, r):
        """Candidates covering every point p with rho(z[q], p) <= r[q]."""
        z = np.asarray(z, dtype=np.complex128)
        r = np.broadcast_to(np.asarray(r, dtype=np.float64), z.shape)
        # a whole-disk ball lists every point, without a tree query
        whole = r > _PSEUDO_RADIUS_MAX
        centers, radii = pseudo_to_euclidean_arrays(z[~whole], r[~whole])
        part = self.balls(centers, radii + _PSEUDO_SLACK)
        every = np.arange(self._tree.n, dtype=np.int64)
        every.setflags(write=False)
        for w in whole:
            yield every if w else next(part)


def pairs(balls):
    """Flatten per-query candidates into index pairs (q, p), sorted by (q, p)."""
    cand = list(balls)
    q = np.repeat(np.arange(len(cand), dtype=np.int64), [c.size for c in cand])
    return q, np.concatenate([np.zeros(0, dtype=np.int64), *cand])


def _surface_distances(dx, dy, radii) -> np.ndarray:
    """math.hypot(dx, dy) - radii elementwise: the exact surface distance."""
    return np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), dtype=np.float64,
                       count=dx.size) - radii


def nearest_disk(x: float, y: float, cx, cy, radii):
    """Exact (distance, index) of the nearest disk surface to (x, y) by one
    scan over all (at least one) disks, the lowest index winning ties."""
    dx = x - cx
    dy = y - cy
    screen = np.hypot(dx, dy) - radii
    near = np.flatnonzero(screen <= screen.min() + _HYPOT_SLACK)
    d = _surface_distances(dx[near], dy[near], radii[near])
    k = int(np.argmin(d))     # the first minimum: near is ascending
    return float(d[k]), int(near[k])


def _checked(result: int) -> int:
    """A result of the grid build's C functions, which return -1 when out of memory."""
    if result < 0:
        raise MemoryError("out of memory building the grid index")
    return result


def _auto_n_side(n_disks: int) -> int:
    target = 8.0 * math.sqrt(max(n_disks, 1))
    n = 64
    while n < target and n < 1024:
        n *= 2
    return n


class DiskGridIndex:
    """Immutable grid index over disks given by centers and radii."""

    def __init__(self, cx, cy, radii, n_side: int | None = None):
        self.cx = np.ascontiguousarray(cx, dtype=np.float64)
        self.cy = np.ascontiguousarray(cy, dtype=np.float64)
        self.radii = np.ascontiguousarray(radii, dtype=np.float64)
        n = self.cx.size
        if not (self.cy.size == n and self.radii.size == n):
            raise ValidationError("center/radius arrays must align")
        self.n_disks = n
        self.n_side = int(n_side) if n_side else _auto_n_side(n)
        self.h = 2.0 * _L / self.n_side
        self.inv_h = 1.0 / self.h
        self.r_min = float(self.radii.min()) if n else math.inf
        self.r_max = float(self.radii.max()) if n else 0.0
        self._build()

    def _build(self):
        lib = _native.library()
        disks = (self.cx, self.cy, self.radii, self.n_disks)
        geometry = (self.n_side, _L, self.inv_h, self.h)
        self.cell_start = np.empty(self.n_side ** 2 + 1, dtype=np.int64)
        self.clearance = np.empty(self.n_side ** 2)
        total = _checked(lib.grid_cells(*disks, *geometry, self.cell_start, self.clearance))
        self.cell_items = np.empty(total, dtype=np.int32)
        _checked(lib.grid_items(*disks, *geometry, self.cell_start, self.cell_items))
        self._build_encounter_data(lib, disks, geometry)

    def _build_encounter_data(self, lib, disks, geometry):
        """For point-like disks, the clearance radius of the concentric
        annulus that stays inside the domain: distance from the center to
        the unit circle and to every other disk.  The center's modulus is
        kept too, for annuli bounded by a smaller outer circle."""
        self.pointlike = self.radii < POINTLIKE_RADIUS
        self.enc_clearance = np.zeros(self.n_disks)
        self.enc_modulus = np.zeros(self.n_disks)
        pl = np.flatnonzero(self.pointlike)
        # the other disks that may attain each one's nearest surface, as
        # the ring search finds them; listed again if they overflow `near`
        near_start = np.empty(pl.size + 1, dtype=np.int64)
        need = pl.size
        while True:
            near = np.empty(need, dtype=np.int32)
            need = _checked(lib.grid_near_others(*disks, self.cell_start, self.cell_items,
                                                 *geometry, pl, pl.size, _HYPOT_SLACK,
                                                 near_start, near, near.size))
            if need <= near.size:
                break
        near = near[:need]
        rep = np.repeat(np.arange(pl.size), np.diff(near_start))
        x = self.cx[pl]
        y = self.cy[pl]
        d_other = np.full(pl.size, np.inf)
        np.minimum.at(d_other, rep, _surface_distances(x[rep] - self.cx[near],
                                                       y[rep] - self.cy[near], self.radii[near]))
        modulus = _surface_distances(x, y, 0.0)   # from the origin, by math.hypot
        self.enc_modulus[pl] = modulus
        self.enc_clearance[pl] = np.minimum(1.0 - modulus, d_other)

    def gather_candidates(self, cells: np.ndarray):
        """CSR gather of candidate lists for an array of cells (the array
        oracles in the tests read the grid through it, and the benchmark's
        tracer counts its calls).

        Returns (rep, items, offsets, lens): `rep[t]` is the query row of
        gathered entry t, `items[t]` the disk index; entries of one query
        are contiguous, starting at offsets[row].
        """
        starts = self.cell_start[cells]
        lens = self.cell_start[cells + 1] - starts
        total = int(lens.sum())
        offsets = np.concatenate([[0], np.cumsum(lens)])
        if total == 0:
            return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32),
                    offsets, lens)
        rep = np.repeat(np.arange(cells.size, dtype=np.int64), lens)
        pos = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets[:-1], lens)
        return rep, self.cell_items[pos], offsets, lens
