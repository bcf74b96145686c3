/* Grid index over disjoint disks (spatial.DiskGridIndex): the candidate
 * lists and the clearance raster of the cells, and the encounter data of
 * the point-like disks (their clearance to the rest of the boundary).
 * Every value must equal that of the array build kept in the tests bit
 * for bit, so the cell tests and every surface distance call libm hypot,
 * as np.hypot does, and the file is built with the walk kernel's flags
 * (no contraction, no fast-math).  At the end, the queries over points
 * bucketed in a grid (spatial.PointIndex), which return their answers, not
 * candidates: sums of 1 - rho per cut, a least-gap pair, or least rho.
 *
 * The grid has n_side x n_side cells of side h over [-half_width,
 * half_width]^2; cell (i, j) is i * n_side + j, its center
 * -half_width + (i + 0.5) h along x and -half_width + (j + 0.5) h along y.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SQRT2 1.4142135623730951   /* math.sqrt(2.0) */
#define TINY_SQUARE 1e-300         /* hyperbolic.TINY_SQUARE */
#define ROUNDING_MARGIN 1e-14      /* of a surface distance: see grid_encounters */

struct box { int64_t i0, i1, j0, j1; };

/* The cells a disk can be a candidate of: those within its radius plus
 * the half-diagonal of a 3x3 block (and 1e-12) of its center. */
static struct box disk_box(double x, double y, double r, int64_t n_side,
                           double half_width, double h, double inv_h)
{
    const double reach = r + 1.5 * h * SQRT2 + 1e-12;
    struct box b;
    b.i0 = (int64_t)((x - reach + half_width) * inv_h);
    b.i1 = (int64_t)((x + reach + half_width) * inv_h);
    b.j0 = (int64_t)((y - reach + half_width) * inv_h);
    b.j1 = (int64_t)((y + reach + half_width) * inv_h);
    b.i0 = b.i0 < 0 ? 0 : b.i0;
    b.j0 = b.j0 < 0 ? 0 : b.j0;
    b.i1 = b.i1 > n_side - 1 ? n_side - 1 : b.i1;
    b.j1 = b.j1 > n_side - 1 ? n_side - 1 : b.j1;
    return b;
}

/* hypot(max(dx - half, 0), max(dy - half, 0)) <= r: the disk of radius r
 * at offset (dx, dy) >= 0 from a square's center meets the square of
 * half-side `half`.  hypot(a, b) is at least max(a, b), and equals it when
 * the other is 0, so libm is called only when both are positive. */
static int meets(double dx, double dy, double half, double r)
{
    double a = dx - half, b = dy - half;
    a = a > 0.0 ? a : 0.0;
    b = b > 0.0 ? b : 0.0;
    if (a > r || b > r)
        return 0;
    if (a == 0.0 || b == 0.0)
        return 1;
    return hypot(a, b) <= r;
}

/* Exact squared Euclidean distance transform of the occupancy raster
 * (Meijster, Roerdink and Hesselink 2000), in integer arithmetic: g[c]
 * becomes the squared distance in cells from c to the nearest occupied
 * cell.  At least one cell must be occupied.  g has n^2 entries, work 3 n. */
static void squared_edt(const uint8_t *occupied, int64_t n, int64_t *g, int64_t *work)
{
    int64_t *s = work, *t = work + n, *gi = work + 2 * n;
    const int64_t far = 2 * n;  /* beats no distance in the grid: far^2 > 2 (n - 1)^2 */
    /* along i, for every j at once */
    for (int64_t j = 0; j < n; j++)
        g[j] = occupied[j] ? 0 : far;
    for (int64_t i = 1; i < n; i++)
        for (int64_t j = 0; j < n; j++)
            g[i * n + j] = occupied[i * n + j] ? 0 : g[(i - 1) * n + j] + 1;
    for (int64_t i = n - 2; i >= 0; i--)
        for (int64_t j = 0; j < n; j++)
            if (g[(i + 1) * n + j] < g[i * n + j])
                g[i * n + j] = g[(i + 1) * n + j] + 1;
    /* along j: the lower envelope of the parabolas (j - u)^2 + g(u)^2 */
    for (int64_t i = 0; i < n; i++) {
        memcpy(gi, g + i * n, (size_t)n * sizeof *gi);
#define F(x, u) (((x) - (u)) * ((x) - (u)) + gi[u] * gi[u])
        int64_t q = 0;
        s[0] = 0;
        t[0] = 0;
        for (int64_t u = 1; u < n; u++) {
            while (q >= 0 && F(t[q], s[q]) > F(t[q], u))
                q--;
            if (q < 0) {
                q = 0;
                s[0] = u;
            } else {
                /* 1 + the floor of where parabola u overtakes s[q], >= t[q] >= 0 */
                const int64_t w = 1 + (u * u - s[q] * s[q] + gi[u] * gi[u] - gi[s[q]] * gi[s[q]])
                                      / (2 * (u - s[q]));
                if (w < n) {
                    q++;
                    s[q] = u;
                    t[q] = w;
                }
            }
        }
        for (int64_t u = n - 1; u >= 0; u--) {
            g[i * n + u] = F(u, s[q]);
            if (u == t[q])
                q--;
        }
#undef F
    }
}

/* Counts the candidates of every cell into cell_start (n_side^2 + 1
 * offsets) and fills the clearance of every cell: (sqrt(d2) - sqrt 2) h,
 * at least 0, where d2 is the squared distance in cells to the nearest
 * cell that a disk meets; 2 half_width when no disk is given.  Returns the
 * number of candidates, or -1 when out of memory. */
int64_t grid_cells(const double *cx, const double *cy, const double *radii, int64_t n_disks,
                   int64_t n_side, double half_width, double inv_h, double h,
                   int64_t *cell_start, double *clearance)
{
    const int64_t n_cells = n_side * n_side;
    uint8_t *occupied = calloc((size_t)n_cells, 1);
    int64_t *g = malloc((size_t)n_cells * sizeof *g);
    int64_t *work = malloc((size_t)(3 * n_side) * sizeof *work);
    if (!occupied || !g || !work) {
        free(occupied);
        free(g);
        free(work);
        return -1;
    }
    memset(cell_start, 0, (size_t)(n_cells + 1) * sizeof *cell_start);
    for (int64_t k = 0; k < n_disks; k++) {
        const struct box b = disk_box(cx[k], cy[k], radii[k], n_side, half_width, h, inv_h);
        for (int64_t i = b.i0; i <= b.i1; i++) {
            const double dx = fabs(cx[k] - (-half_width + ((double)i + 0.5) * h));
            for (int64_t j = b.j0; j <= b.j1; j++) {
                const double dy = fabs(cy[k] - (-half_width + ((double)j + 0.5) * h));
                cell_start[i * n_side + j + 1] += meets(dx, dy, 1.5 * h, radii[k]);
                if (meets(dx, dy, 0.5 * h, radii[k]))
                    occupied[i * n_side + j] = 1;
            }
        }
    }
    for (int64_t c = 0; c < n_cells; c++)
        cell_start[c + 1] += cell_start[c];
    if (n_disks == 0) {
        for (int64_t c = 0; c < n_cells; c++)
            clearance[c] = 2.0 * half_width;
    } else {
        squared_edt(occupied, n_side, g, work);
        for (int64_t c = 0; c < n_cells; c++) {
            const double v = (sqrt((double)g[c]) - SQRT2) * h;
            clearance[c] = v > 0.0 ? v : 0.0;
        }
    }
    free(occupied);
    free(g);
    free(work);
    return cell_start[n_cells];
}

/* Fills the candidate lists counted by grid_cells: the disks meeting the
 * 3x3 block around each cell, by increasing index.  Returns 0, or -1 when
 * out of memory. */
int64_t grid_items(const double *cx, const double *cy, const double *radii, int64_t n_disks,
                   int64_t n_side, double half_width, double inv_h, double h,
                   const int64_t *cell_start, int32_t *cell_items)
{
    const int64_t n_cells = n_side * n_side;
    int64_t *next = malloc((size_t)n_cells * sizeof *next);
    if (!next)
        return -1;
    memcpy(next, cell_start, (size_t)n_cells * sizeof *next);
    for (int64_t k = 0; k < n_disks; k++) {
        const struct box b = disk_box(cx[k], cy[k], radii[k], n_side, half_width, h, inv_h);
        for (int64_t i = b.i0; i <= b.i1; i++) {
            const double dx = fabs(cx[k] - (-half_width + ((double)i + 0.5) * h));
            for (int64_t j = b.j0; j <= b.j1; j++) {
                const double dy = fabs(cy[k] - (-half_width + ((double)j + 0.5) * h));
                if (meets(dx, dy, 1.5 * h, radii[k]))
                    cell_items[next[i * n_side + j]++] = (int32_t)k;
            }
        }
    }
    free(next);
    return 0;
}

/* The cells at Chebyshev distance k from (i0, j0), in the order the
 * reference ring search of the tests enumerates its rings; at most
 * 8 k + 1. */
static int64_t ring(int64_t n_side, int64_t i0, int64_t j0, int64_t k, int64_t *cells)
{
    if (k == 0) {
        cells[0] = i0 * n_side + j0;
        return 1;
    }
    const int64_t lo_i = i0 - k > 0 ? i0 - k : 0, hi_i = i0 + k < n_side ? i0 + k : n_side - 1;
    const int64_t lo_j = j0 - k > 0 ? j0 - k : 0, hi_j = j0 + k < n_side ? j0 + k : n_side - 1;
    int64_t m = 0;
    for (int64_t i = lo_i; i <= hi_i; i++) {
        if (i == i0 - k || i == i0 + k) {
            for (int64_t j = lo_j; j <= hi_j; j++)
                cells[m++] = i * n_side + j;
        } else {
            if (j0 - k >= 0)
                cells[m++] = i * n_side + j0 - k;
            if (j0 + k <= n_side - 1)
                cells[m++] = i * n_side + j0 + k;
        }
    }
    return m;
}

/* The encounter data of each point-like disk p = pl[q]: enc_modulus[p] =
 * hypot(x, y) for its center (x, y), and enc_clearance[p] the least of
 * 1 - enc_modulus[p] and hypot(dx, dy) - r over the other disks, as
 * np.hypot evaluates it.  The reference ring search of the tests, from
 * p's cell outwards: once rings 0 .. k are scanned, every unlisted disk
 * lies beyond (k + 1) h, up to the rounding of the cell tests and of the
 * distances, which ROUNDING_MARGIN covers (every distance in the grid's
 * square is below 3, where an ulp is 4.4e-16).  Returns 0, or -1 when out
 * of memory. */
int64_t grid_encounters(const double *cx, const double *cy, const double *radii,
                        const int64_t *cell_start, const int32_t *cell_items,
                        int64_t n_side, double half_width, double inv_h, double h,
                        const int64_t *pl, int64_t n_pl, double *enc_modulus, double *enc_clearance)
{
    int64_t *cells = malloc((size_t)(8 * n_side + 1) * sizeof *cells);
    if (!cells)
        return -1;
    for (int64_t q = 0; q < n_pl; q++) {
        const int64_t p = pl[q];
        const double x = cx[p], y = cy[p];
        int64_t i0 = (int64_t)((x + half_width) * inv_h), j0 = (int64_t)((y + half_width) * inv_h);
        i0 = i0 < 0 ? 0 : i0 > n_side - 1 ? n_side - 1 : i0;
        j0 = j0 < 0 ? 0 : j0 > n_side - 1 ? n_side - 1 : j0;
        /* rings beyond the farthest edge of the grid are empty */
        int64_t edge = i0 > n_side - 1 - i0 ? i0 : n_side - 1 - i0;
        edge = j0 > edge ? j0 : edge;
        edge = n_side - 1 - j0 > edge ? n_side - 1 - j0 : edge;
        double best = INFINITY;
        for (int64_t k = 0; k <= edge; k++) {
            const int64_t m = ring(n_side, i0, j0, k, cells);
            for (int64_t a = 0; a < m; a++)
                for (int64_t e = cell_start[cells[a]]; e < cell_start[cells[a] + 1]; e++) {
                    const int64_t i = cell_items[e];
                    const double d = hypot(x - cx[i], y - cy[i]) - radii[i];
                    if (i != p && d < best)
                        best = d;
                }
            if (best + ROUNDING_MARGIN <= (double)(k + 1) * h)
                break;
        }
        const double modulus = hypot(x, y);
        enc_modulus[p] = modulus;
        enc_clearance[p] = best < 1.0 - modulus ? best : 1.0 - modulus;
    }
    free(cells);
    return 0;
}

/* The bucket cell of coordinate t along one axis: (t + half_width) inv_h,
 * clamped to the grid and truncated, so that points beyond the grid's
 * square fall in its edge cells.  spatial.PointIndex buckets the points by
 * the same arithmetic, and it is nondecreasing in t: a box of cells from
 * the cells of x - reach to those of x + reach holds every point within
 * reach of x along the axis. */
static int64_t axis_cell(double t, int64_t n_side, double half_width, double inv_h)
{
    const double c = (t + half_width) * inv_h;
    return !(c > 0.0) ? 0 : c > (double)(n_side - 1) ? n_side - 1 : (int64_t)c;   /* NaN: 0 */
}

/* rho(z, p) for z = (x, y) with gap = 1 - |z|^2, as
 * hyperbolic.pseudo_distance_many evaluates it, operation for operation:
 * sqrt(d^2 / b^2), with b^2 = d^2 + (1 - |z|^2)(1 - |p|^2), or
 * hypot(dx, dy) / sqrt(b^2) where d^2 < TINY_SQUARE. */
static double rho(double x, double y, double gap, double px, double py)
{
    const double dx = x - px, dy = y - py;
    const double d2 = dx * dx + dy * dy;
    const double b2 = d2 + gap * (1.0 - (px * px + py * py));
    return d2 < TINY_SQUARE ? hypot(dx, dy) / sqrt(b2) : sqrt(d2 / b2);
}

/* Points bucketed in a uniform grid (spatial.PointIndex): (px[e], py[e]) is
 * bucket entry e, point order[e] of the set, and the entries of cell (i, j)
 * are cell_start[i n_side + j] .. cell_start[i n_side + j + 1).  A ball
 * query screens the rows of cells of this box by dx^2 + dy^2 <= r^2: a hit
 * lies within r (1 + 1e-12) + 1e-12 of (x, y) on each axis, the margin
 * covering the rounding of the sum and squares that underflow to 0. */
static struct box ball_box(double x, double y, double r,
                           int64_t n_side, double half_width, double inv_h)
{
    const double reach = r * (1.0 + 1e-12) + 1e-12;
    return (struct box){axis_cell(x - reach, n_side, half_width, inv_h),
                        axis_cell(x + reach, n_side, half_width, inv_h),
                        axis_cell(y - reach, n_side, half_width, inv_h),
                        axis_cell(y + reach, n_side, half_width, inv_h)};
}

/* Annular sums for queries z = (zx[q], zy[q]) and points in the open disk:
 * out[q n_cuts + k] is the sum of 1 - rho(z, p) over the points p with
 * rho(z, p) <= cuts[k].  Each hit adds its 1 - rho, in bucket-entry order,
 * to the bin of the least cut it lies within (the lowest index among equal
 * cuts), and cut k adds the bins of the cuts up to cuts[k] in index order:
 * no sort, and m terms >= 0 through c bins are within gamma(m + c) =
 * (m + c) u / (1 - (m + c) u), u = 2^-53, relative to their exact sum.
 * Every point within the largest cut must be a hit of the ball (bx[q],
 * by[q], br[q]); a radius of +inf hits every point.  Returns 0, or -1 when
 * out of memory. */
int64_t point_ball_sums(const double *px, const double *py, const int64_t *cell_start,
                        int64_t n_side, double half_width, double inv_h,
                        const double *zx, const double *zy,
                        const double *bx, const double *by, const double *br, int64_t n_q,
                        const double *cuts, int64_t n_cuts, double *out)
{
    double *bins = malloc((size_t)n_cuts * sizeof *bins);
    if (!bins)
        return -1;
    for (int64_t q = 0; q < n_q; q++) {
        const double x = zx[q], y = zy[q], gap = 1.0 - (x * x + y * y), r = br[q];
        const struct box b = ball_box(bx[q], by[q], r, n_side, half_width, inv_h);
        memset(bins, 0, (size_t)n_cuts * sizeof *bins);
        for (int64_t i = b.i0; i <= b.i1; i++)
            for (int64_t e = cell_start[i * n_side + b.j0]; e < cell_start[i * n_side + b.j1 + 1]; e++) {
                const double dx = px[e] - bx[q], dy = py[e] - by[q];
                if (!(dx * dx + dy * dy <= r * r))
                    continue;
                const double t = rho(x, y, gap, px[e], py[e]);
                int64_t least = -1;
                for (int64_t k = 0; k < n_cuts; k++)
                    if (t <= cuts[k] && (least < 0 || cuts[k] < cuts[least]))
                        least = k;
                if (least >= 0)
                    bins[least] += 1.0 - t;
            }
        for (int64_t k = 0; k < n_cuts; k++) {
            double sum = 0.0;
            for (int64_t c = 0; c < n_cuts; c++)
                if (cuts[c] <= cuts[k])
                    sum += bins[c];
            out[q * n_cuts + k] = sum;
        }
    }
    free(bins);
    return 0;
}

/* The least gap hypot(dx, dy) - radii[a] - radii[b] (hypot is even: the
 * sign of dx and dy is moot) between disks centred at points a < b, least
 * by (gap, a, b), over the hits of each disk's ball of twice its radius,
 * 1e-9 relative wider so that rounding drops no pair: closed disks meet
 * only that close, so it is the least of all gaps when that is <= 0.
 * Returns the gap, its pair in pair[0..1]; +inf, (-1, -1) with no hit. */
double point_least_gap(const double *px, const double *py, const int64_t *order,
                       const int64_t *cell_start, int64_t n_side, double half_width,
                       double inv_h, const double *radii, int64_t *pair)
{
    double best = INFINITY;
    pair[0] = pair[1] = -1;
    for (int64_t e = 0; e < cell_start[n_side * n_side]; e++) {
        const int64_t q = order[e];
        const double r = 2.0 * radii[q] * (1.0 + 1e-9);
        const struct box b = ball_box(px[e], py[e], r, n_side, half_width, inv_h);
        for (int64_t i = b.i0; i <= b.i1; i++)
            for (int64_t f = cell_start[i * n_side + b.j0]; f < cell_start[i * n_side + b.j1 + 1]; f++) {
                const double dx = px[f] - px[e], dy = py[f] - py[e];
                const int64_t a = q < order[f] ? q : order[f], c = q < order[f] ? order[f] : q;
                if (a == c || !(dx * dx + dy * dy <= r * r))
                    continue;
                const double g = hypot(dx, dy) - radii[a] - radii[c];
                if (g < best || (g == best && (a < pair[0] || (a == pair[0] && c < pair[1])))) {
                    best = g;
                    pair[0] = a;
                    pair[1] = c;
                }
            }
    }
    return best;
}

/* A lower bound on the computed rho(z, p) for every point p at least d
 * from z, for z and p points of the open disk with 1 - |z|^2 > 2^-46,
 * where gap = 1 - |z|^2 and gap_max bounds every 1 - |p|^2: with
 * D = |z - p|, rho^2 = D^2 / (D^2 + (1 - |z|^2)(1 - |p|^2)), where
 * 1 - |p|^2 is at most gap_max and, as |p| >= |z| - D, at most
 * 1 - |z|^2 + 2 D, so rho grows with D.  rho() is within (3.5 + 1 / b)
 * 2^-52 of rho, b = |1 - conj(p) z| >= D: d^2 is off by 4u relatively and
 * each 1 - |.|^2 by 2u absolutely (u = 2^-53), which moves rho by at most
 * 2u / b (as 2 - |z|^2 - |p|^2 <= 2 (1 - |z||p|) <= 2 b), and the sums,
 * product, quotient and root by 7u more.  This bound's own rounding adds
 * 2 to the first term, and the margin subtracted, (8 + 2 / d) 2^-52,
 * covers the second-order terms and the 2^-6 relative error that
 * 1 - |z|^2 may reach.  The cells of z and p are found by rounded
 * arithmetic, which 2^-40 more than covers. */
static double rho_beyond(double d, double gap, double gap_max)
{
    d -= 0x1p-40;
    const double g = gap + 0x1p-52;   /* 1 - |z|^2 is within 2^-52 of gap */
    const double w = g + 2.0 * d < gap_max ? g + 2.0 * d : gap_max;
    return d > 0.0 ? sqrt(d * d / (d * d + g * w)) - (0x1p-49 + 0x1p-51 / d) : -INFINITY;
}

/* Pseudo nearest queries over the bucketed points: out[q] is the least
 * rho(z, p) over the points p, for z = (qx[q], qy[q]), as rho() evaluates
 * it; with `others` set, a point equal to z is passed over, and a query
 * with no point to measure gets +inf.  Queries and points are points of
 * the open disk with 1 - |.|^2 > 2^-46, as the callers' checks of
 * |z| <= 1 - 1e-12 ensure, so no rho is NaN.
 * The rings of cells around z's cell are searched outwards, as
 * grid_encounters does.  A cell whose points are too far from z to beat
 * the least rho so far, by rho_beyond at its distance from z, is passed
 * over, and once rings 0 .. k are scanned, every other point lies at
 * least k h from z: the search stops when rho_beyond at k h exceeds the
 * least rho.  Returns 0, or -1 when out of memory. */
int64_t point_nearest(const double *px, const double *py, const int64_t *cell_start,
                      int64_t n_side, double half_width, double inv_h,
                      const double *qx, const double *qy, int64_t n_q, int64_t others,
                      double gap_max, double *out)
{
    const double h = 2.0 * half_width / (double)n_side;
    int64_t *cells = malloc((size_t)(8 * n_side + 1) * sizeof *cells);
    if (!cells)
        return -1;
    for (int64_t q = 0; q < n_q; q++) {
        const double x = qx[q], y = qy[q];
        /* 1 - |z|^2 is within 2^-52 of its value; from 2^-46 on, its
         * relative error is below 2^-6, which rho_beyond allows for */
        const double gap = 1.0 - (x * x + y * y);
        const int64_t i0 = axis_cell(x, n_side, half_width, inv_h);
        const int64_t j0 = axis_cell(y, n_side, half_width, inv_h);
        int64_t edge = i0 > n_side - 1 - i0 ? i0 : n_side - 1 - i0;
        edge = j0 > edge ? j0 : edge;
        edge = n_side - 1 - j0 > edge ? n_side - 1 - j0 : edge;
        double t = INFINITY;
        for (int64_t k = 0; k <= edge; k++) {
            const int64_t n_cells = ring(n_side, i0, j0, k, cells);
            for (int64_t a = 0; a < n_cells; a++) {
                const int64_t c = cells[a], end = cell_start[c + 1];
                if (cell_start[c] == end)
                    continue;
                /* the distance from z to the cell */
                const double lo_x = -half_width + (double)(c / n_side) * h;
                const double lo_y = -half_width + (double)(c % n_side) * h;
                const double gx = fmax(fmax(lo_x - x, x - (lo_x + h)), 0.0);
                const double gy = fmax(fmax(lo_y - y, y - (lo_y + h)), 0.0);
                if (rho_beyond(sqrt(gx * gx + gy * gy), gap, gap_max) > t)
                    continue;
                for (int64_t e = cell_start[c]; e < end; e++)
                    if (!(others && px[e] == x && py[e] == y))
                        t = fmin(t, rho(x, y, gap, px[e], py[e]));
            }
            if (rho_beyond((double)k * h, gap, gap_max) > t)
                break;
        }
        out[q] = t;
    }
    free(cells);
    return 0;
}
