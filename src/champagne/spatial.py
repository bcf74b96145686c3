"""Exact spatial queries: a bucket grid over points, and a grid over disks.

PointIndex answers every query on a point set (separation, covering,
annular sums, disjointness) from one uniform bucket grid over the points,
through three compiled queries (_grid.c) that return the value of a
brute-force scan, not candidates.  Ball queries scan the cells of each
ball's box: point_ball_sums returns each query's sums of 1 - rho per cut
and point_least_gap the least-gap pair of disks centred at the points.  A
pseudo ball {w : rho(z, w) <= r} is exactly a Euclidean disk; one wider
than _PSEUDO_RADIUS_MAX is the whole disk, a ball of radius +inf.
point_nearest returns each query's least rho by one ring search outwards
from its cell, which stops once no unscanned point can be nearer.  Both
pseudo queries evaluate rho as pseudo_distance_many does, and both take
queries and points of the open disk only: a PointSequence's points, the
probe lattice, and probe sets that sequences.require_probe_points admits.

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

The compiled library (_grid.c, built by _native on first use) builds
the disk grid's candidate lists and clearance, with the arithmetic of the
array build the tests keep as the reference.  It also builds the
encounter data of point-like disks (their clearance to the rest of the
boundary) by a ring search over the grid from each such disk.

Every surface distance outside the walk kernel is hypot(dx, dy) - r:
np.hypot here and libm hypot in _grid.c, which np.hypot calls.  The walk
kernel keeps its own sqrt(dx^2 + dy^2) - r per step.
"""

from __future__ import annotations

import math

import numpy as np

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
# lies at most 3.2e-11 outside the computed Euclidean realization of
# {rho(z, .) <= r} (the worst over 12,000 random balls, 256 angles and 61
# offsets from the circle each, for gaps 1 - |z| down to 1e-12 and r up to
# _PSEUDO_RADIUS_MAX).  That error grows like 1e-16 / (1 - r), so wider
# pseudo balls are taken to be the whole disk.
_PSEUDO_SLACK = 1e-9
_PSEUDO_RADIUS_MAX = 1.0 - 1e-5


class PointIndex:
    """Points of the plane bucketed in a uniform grid over [-_L, _L]^2: the
    one structure behind ball queries and pseudo nearest queries."""

    def __init__(self, points):
        points = np.asarray(points, dtype=np.complex128).ravel()
        self.n = points.size
        x, y = points.real, points.imag
        self.n_side = _point_n_side(self.n)
        self.inv_h = self.n_side / (2.0 * _L)
        # the cell arithmetic of _grid.c's axis_cell: clamped, then truncated
        cell = self._axis_cell(x) * self.n_side + self._axis_cell(y)
        self.order = np.argsort(cell, kind="stable")
        self.px = x[self.order]
        self.py = y[self.order]
        self.cell_start = np.zeros(self.n_side ** 2 + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell, minlength=self.n_side ** 2), out=self.cell_start[1:])
        # the largest 1 - |p|^2, which this arithmetic gets within 2^-52:
        # the nearest search bounds the rho of unscanned points with it
        self.gap_max = float((1.0 - (x * x + y * y)).max(initial=0.0)) + 2.0 ** -52

    def _axis_cell(self, t):
        return np.clip((t + _L) * self.inv_h, 0.0, self.n_side - 1).astype(np.int64)

    def pseudo_nearest(self, z, others=False) -> np.ndarray:
        """min over points p of rho(z[q], p) for each query, over the points
        other than z[q] itself if `others`, exactly as a scan of
        pseudo_distance_many evaluates it (+inf with no point to measure).
        The queries and the points must lie in the open disk with
        1 - |.|^2 > 2^-46, as those with |.| <= 1 - 1e-12 do."""
        z = np.asarray(z, dtype=np.complex128).ravel()
        out = np.empty(z.size)
        _checked(_native.library().point_nearest(
            self.px, self.py, self.cell_start, self.n_side, _L, self.inv_h,
            np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag), z.size, others,
            self.gap_max, out))
        return out

    def pseudo_ball_sums(self, z, cuts) -> np.ndarray:
        """out[q, k] = the sum of 1 - rho(z[q], p) over the points p with
        rho <= cuts[k], rho as pseudo_distance_many evaluates it, in one
        unsorted pass.  The points and queries must lie in the open disk."""
        z = np.asarray(z, dtype=np.complex128).ravel()
        cuts = np.ascontiguousarray(cuts, dtype=np.float64).ravel()
        r = float(cuts.max())
        centers, radii = pseudo_to_euclidean_arrays(z, min(r, _PSEUDO_RADIUS_MAX))
        # a whole-disk ball is one of radius +inf
        radii = np.full(z.size, np.inf) if r > _PSEUDO_RADIUS_MAX else radii + _PSEUDO_SLACK
        out = np.empty((z.size, cuts.size))
        _checked(_native.library().point_ball_sums(
            self.px, self.py, self.cell_start, self.n_side, _L, self.inv_h,
            np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag),
            np.ascontiguousarray(centers.real), np.ascontiguousarray(centers.imag), radii,
            z.size, cuts, cuts.size, out))
        return out

    def least_gap(self, radii):
        """(gap, a, b), least, of np.hypot(dx, dy) - radii[a] - radii[b] over
        disks centred at points a < b within twice the larger radius: the
        least of all gaps when <= 0; (inf, -1, -1) with no such pair."""
        radii = np.ascontiguousarray(radii, dtype=np.float64)
        if radii.shape != (self.n,):
            raise ValidationError(f"need {self.n} radii, got shape {radii.shape}")
        pair = np.empty(2, dtype=np.int64)
        gap = _native.library().point_least_gap(
            self.px, self.py, self.order, self.cell_start, self.n_side, _L, self.inv_h, radii, pair)
        return gap, int(pair[0]), int(pair[1])


def nearest_disk(x: float, y: float, cx, cy, radii):
    """Exact (distance, index) of the nearest disk surface to (x, y) by one
    scan over all (at least one) disks, the lowest index winning ties."""
    d = np.hypot(x - cx, y - cy) - radii
    k = int(np.argmin(d))
    return float(d[k]), k


def _checked(result: int) -> int:
    """A result of the C functions of _grid.c that return -1 when out of memory."""
    if result < 0:
        raise MemoryError("out of memory building the grid index")
    return result


def _point_n_side(n_points: int) -> int:
    """Side of a point bucket grid: about one cell per point."""
    n = 1
    while n * n < n_points and n < 1024:
        n *= 2
    return n


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
        if n_side is not None and not n_side >= 1:
            raise ValidationError(f"n_side must be at least 1, got {n_side!r}")
        self.n_side = _auto_n_side(n) if n_side is None else int(n_side)
        self.h = 2.0 * _L / self.n_side
        self.inv_h = 1.0 / self.h
        self.r_min = float(self.radii.min()) if n else math.inf
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
        self._build_encounter_data(lib, geometry)

    def _build_encounter_data(self, lib, geometry):
        """For point-like disks, the clearance radius of the concentric
        annulus that stays inside the domain: distance from the center to
        the unit circle and to every other disk.  The center's modulus is
        kept too, for annuli bounded by a smaller outer circle."""
        self.pointlike = self.radii < POINTLIKE_RADIUS
        self.enc_clearance = np.zeros(self.n_disks)
        self.enc_modulus = np.zeros(self.n_disks)
        pl = np.flatnonzero(self.pointlike)
        _checked(lib.grid_encounters(self.cx, self.cy, self.radii, self.cell_start,
                                     self.cell_items, *geometry, pl, pl.size,
                                     self.enc_modulus, self.enc_clearance))

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
