/* Grid index over disjoint disks (spatial.DiskGridIndex): the candidate
 * lists and the clearance raster of the cells, and the screening of the
 * point-like disks' encounter data.  Every value must equal that of the
 * array build kept in the tests bit for bit, so the cell tests call libm
 * hypot, as np.hypot does, and the file is built with the walk kernel's
 * flags (no contraction, no fast-math).
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
 * 3x3 block around each cell, ascending.  Returns 0, or -1 when out of
 * memory. */
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

/* Screens the nearest other surface of each point-like disk p = pl[q]:
 * the reference ring search from p's center, excluding p.  The screened
 * distance sqrt(dx^2 + dy^2) - r lies within a few ulps (under 3e-15 in
 * the grid's square) of the distance math.hypot gives, so the search
 * goes on until the screened minimum plus `slack` is within the scanned
 * rings, and every distinct disk within `slack` of that minimum is listed:
 * the caller measures those with math.hypot.
 * near[near_start[q] .. near_start[q + 1]) lists p's disks; only the first
 * `capacity` entries of `near` are written.  Returns the number of
 * entries, or -1 when out of memory. */
int64_t grid_near_others(const double *cx, const double *cy, const double *radii, int64_t n_disks,
                         const int64_t *cell_start, const int32_t *cell_items,
                         int64_t n_side, double half_width, double inv_h, double h,
                         const int64_t *pl, int64_t n_pl, double slack,
                         int64_t *near_start, int32_t *near, int64_t capacity)
{
    int64_t *cells = malloc((size_t)(8 * n_side + 1) * sizeof *cells);
    int64_t *listed = malloc((size_t)(n_disks > 0 ? n_disks : 1) * sizeof *listed);
    if (!cells || !listed) {
        free(cells);
        free(listed);
        return -1;
    }
    for (int64_t k = 0; k < n_disks; k++)
        listed[k] = -1;   /* the last q that listed disk k */
    int64_t total = 0;
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
        int64_t last = edge;
        double best = INFINITY;
        for (int64_t k = 0; k <= edge; k++) {
            const int64_t m = ring(n_side, i0, j0, k, cells);
            for (int64_t a = 0; a < m; a++)
                for (int64_t e = cell_start[cells[a]]; e < cell_start[cells[a] + 1]; e++) {
                    const int64_t i = cell_items[e];
                    const double dx = x - cx[i], dy = y - cy[i];
                    const double d = sqrt(dx * dx + dy * dy) - radii[i];
                    if (i != p && d < best)
                        best = d;
                }
            if (best + slack <= (double)(k + 1) * h) {
                last = k;
                break;
            }
        }
        near_start[q] = total;
        for (int64_t k = 0; k <= last; k++) {
            const int64_t m = ring(n_side, i0, j0, k, cells);
            for (int64_t a = 0; a < m; a++)
                for (int64_t e = cell_start[cells[a]]; e < cell_start[cells[a] + 1]; e++) {
                    const int64_t i = cell_items[e];
                    const double dx = x - cx[i], dy = y - cy[i];
                    if (i == p || listed[i] == q || !(sqrt(dx * dx + dy * dy) - radii[i] <= best + slack))
                        continue;
                    listed[i] = q;
                    if (total < capacity)
                        near[total] = (int32_t)i;
                    total++;
                }
        }
    }
    near_start[n_pl] = total;
    free(cells);
    free(listed);
    return total;
}
