"""The array build of the disk grid index that the compiled one
(champagne/_grid.c) replaced, kept as its reference, and the Python
queries over any grid index that serve as the tests' oracles.

ArrayGridIndex is a DiskGridIndex whose arrays come from NumPy: the cell
boxes of all disks enumerated in blocks, np.hypot cell tests, a lexsort
into (cell, disk) order, scipy's Euclidean distance transform for the
clearance, and the encounter data from one candidate gather over the
point-like disks' own cells with the ring search as the fallback.  The
compiled build must give equal (==) arrays.  Every surface distance is
np.hypot(dx, dy) - r, as in the package.

cells_of addresses cells as the walk kernel does; nearest_surface is the
exact nearest-surface ring search over the grid, and nearest_in_cell its
first step alone (the candidates of one cell), exact up to distance h.
"""

import math

import numpy as np
from scipy import ndimage

from champagne.spatial import _L, POINTLIKE_RADIUS, DiskGridIndex

_SQRT2 = math.sqrt(2.0)

BUILD_BLOCK = 1 << 14  # grid cells tested per block of the build: bounds its memory


def cells_of(index, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # the walk kernel (_walk.c) addresses cells by this same formula
    top = index.n_side - 1
    ix = np.minimum(np.maximum(((x + _L) * index.inv_h).astype(np.int64), 0), top)
    iy = np.minimum(np.maximum(((y + _L) * index.inv_h).astype(np.int64), 0), top)
    return ix * index.n_side + iy


def _cell_ij(index, x: float, y: float):
    top = index.n_side - 1
    return (min(max(int((x + _L) * index.inv_h), 0), top),
            min(max(int((y + _L) * index.inv_h), 0), top))


def nearest_in_cell(index, x: float, y: float):
    """(distance, index) of the nearest surface among the candidates of
    the cell holding (x, y); (inf, -1) when it lists none.

    Equal to nearest_surface whenever either result is <= h: a disk
    that close intersects the 3x3 block and is listed, and the ring
    search stops after this cell."""
    ix, iy = _cell_ij(index, x, y)
    c = ix * index.n_side + iy
    best, best_i = math.inf, -1
    for kk in range(index.cell_start[c], index.cell_start[c + 1]):
        i = index.cell_items[kk]
        d = np.hypot(x - index.cx[i], y - index.cy[i]) - index.radii[i]
        if d < best or (d == best and i < best_i):
            best, best_i = d, int(i)
    return best, best_i


def _ring_cells(ns: int, ix0: int, iy0: int, k: int) -> np.ndarray:
    """The cells at Chebyshev distance k from (ix0, iy0) inside the grid:
    its two rows at ix0 -+ k, then its two columns at iy0 -+ k between them."""
    if k == 0:
        return np.array([ix0 * ns + iy0])
    ys = np.arange(max(iy0 - k, 0), min(iy0 + k, ns - 1) + 1)
    xs = np.arange(max(ix0 - k + 1, 0), min(ix0 + k - 1, ns - 1) + 1)
    parts = [ix * ns + ys for ix in (ix0 - k, ix0 + k) if 0 <= ix < ns]
    parts += [xs * ns + iy for iy in (iy0 - k, iy0 + k) if 0 <= iy < ns]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def nearest_surface(index, x: float, y: float, exclude: int = -1):
    """Exact (distance, index) of the nearest disk surface, optionally
    ignoring one disk; (inf, -1) when the index holds no disks.

    Expanding ring search: after scanning all cells within Chebyshev
    radius k, every unseen disk is farther than (k+1) h away.  Each ring's
    candidates are gathered at once and measured with np.hypot; the
    lowest index wins ties."""
    if index.n_disks == 0:
        return math.inf, -1
    ns = index.n_side
    ix0, iy0 = _cell_ij(index, x, y)
    best = math.inf
    best_i = -1
    for k in range(ns):
        _, items, _, _ = index.gather_candidates(_ring_cells(ns, ix0, iy0, k))
        items = items[items != exclude]
        if items.size:
            d = np.hypot(x - index.cx[items], y - index.cy[items]) - index.radii[items]
            m = float(d.min())
            i = int(items[d == m].min())
            if m < best or (m == best and i < best_i):
                best, best_i = m, i
        if best <= (k + 1) * index.h:
            break
    return best, best_i


class ArrayGridIndex(DiskGridIndex):
    """DiskGridIndex built by the array code."""

    def _build(self):
        ns = self.n_side
        h = self.h
        if self.n_disks == 0:
            self.cell_start = np.zeros(ns * ns + 1, dtype=np.int64)
            self.cell_items = np.zeros(0, dtype=np.int32)
            self.clearance = np.full(ns * ns, 2.0 * _L, dtype=np.float64)
            self._build_encounter_data()
            return
        centers_x = -_L + (np.arange(ns) + 0.5) * h
        # the cell box of each disk's candidate reach
        reach = self.radii + 1.5 * h * _SQRT2 + 1e-12
        ix0 = np.maximum(((self.cx - reach + _L) * self.inv_h).astype(np.int64), 0)
        ix1 = np.minimum(((self.cx + reach + _L) * self.inv_h).astype(np.int64), ns - 1)
        iy0 = np.maximum(((self.cy - reach + _L) * self.inv_h).astype(np.int64), 0)
        iy1 = np.minimum(((self.cy + reach + _L) * self.inv_h).astype(np.int64), ns - 1)
        ny = np.maximum(iy1 - iy0 + 1, 0)
        size = np.maximum(ix1 - ix0 + 1, 0) * ny
        first = np.cumsum(size) - size   # offset of each box in the flat enumeration
        # blocks of whole boxes, about BUILD_BLOCK cells each
        cuts = np.unique(np.concatenate([
            [0], np.searchsorted(first, np.arange(0, int(size.sum()), BUILD_BLOCK)),
            [self.n_disks]]))
        occupied = np.zeros(ns * ns, dtype=bool)
        cand_cells: list[np.ndarray] = []
        cand_disks: list[np.ndarray] = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            disk = np.repeat(np.arange(lo, hi, dtype=np.int32), size[lo:hi])
            k = np.arange(disk.size) - np.repeat(first[lo:hi] - first[lo], size[lo:hi])
            gi = ix0[disk] + k // ny[disk]
            gj = iy0[disk] + k % ny[disk]
            dx = np.abs(self.cx[disk] - centers_x[gi])
            dy = np.abs(self.cy[disk] - centers_x[gj])
            r = self.radii[disk]
            cell = gi * ns + gj
            # distance from the disk center to the 3x3 block around each cell
            cand = np.hypot(np.maximum(dx - 1.5 * h, 0.0), np.maximum(dy - 1.5 * h, 0.0)) <= r
            cand_cells.append(cell[cand])
            cand_disks.append(disk[cand])
            # distance to the cell itself, for the occupancy raster
            occ = np.hypot(np.maximum(dx - 0.5 * h, 0.0), np.maximum(dy - 0.5 * h, 0.0)) <= r
            occupied[cell[occ]] = True
        cells = np.concatenate(cand_cells)
        disks = np.concatenate(cand_disks)
        order = np.lexsort((disks, cells))
        cells = cells[order]
        disks = disks[order]
        counts = np.bincount(cells, minlength=ns * ns)
        self.cell_start = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.cell_items = disks
        # clearance: (EDT - sqrt2) * h lower-bounds the distance from any
        # point of a free cell to any point of any disk
        edt = ndimage.distance_transform_edt(~occupied.reshape(ns, ns))
        self.clearance = np.maximum((edt - _SQRT2) * h, 0.0).ravel()
        self._build_encounter_data()

    def _build_encounter_data(self):
        """For point-like disks, the clearance radius of the concentric
        annulus that stays inside the domain: distance from the center to
        the unit circle and to every other disk."""
        self.pointlike = self.radii < POINTLIKE_RADIUS
        self.enc_clearance = np.zeros(self.n_disks)
        pl = np.flatnonzero(self.pointlike)
        x = self.cx[pl]
        y = self.cy[pl]
        # nearest other surface among the candidates of each disk's own
        # cell: the first step of nearest_surface, final when it is <= h
        rep, items, _, _ = self.gather_candidates(cells_of(self, x, y))
        other = items != pl[rep]
        rep = rep[other]
        items = items[other]
        d_other = np.full(pl.size, np.inf)
        np.minimum.at(d_other, rep,
                      np.hypot(x[rep] - self.cx[items], y[rep] - self.cy[items]) - self.radii[items])
        # no other surface within h: the ring search goes on outwards
        for k in np.flatnonzero(~(d_other <= self.h)):
            d_other[k] = nearest_surface(self, x[k], y[k], exclude=int(pl[k]))[0]
        self.enc_clearance[pl] = np.minimum(1.0 - np.hypot(x, y), d_other)
