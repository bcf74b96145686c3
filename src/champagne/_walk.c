/* Walk-on-spheres kernel: walks [w0, w1) of one call, LANES of them in
 * flight at a time, advanced in turn one step each; a walk that exits
 * gives its lane to the next unstarted walk.  The walks leave from a table
 * of starts (sx, sy), each with its seed and per_start >= 1 walks: walk w
 * begins at start s = w / per_start and reads the stream
 * (seeds[s], w - s per_start), so a lone start reads (seed, w).  Each walk
 * reads only its own stream, so no output depends on the lanes.  The
 * sampler is the one walker.py documents; this file fixes only its
 * arithmetic, which must match the array kernel kept in the tests bit for
 * bit.  So it is built with -ffp-contract=off and without -ffast-math: a
 * fused multiply-add or a vector libm would change the last bits of
 * positions, and with them every later draw.
 *
 * A jump direction, and the exit angle of a point-like encounter, is
 * (cos 2 pi u, sin 2 pi u) of one uniform u, computed without libm trig,
 * whose last bits differ between platforms: u = q/4 + r with q the nearest
 * quarter turn and r in [-1/8, 1/8] turns (both exact), the Taylor
 * polynomials of sin 2 pi r and cos 2 pi r through r^15 and r^16, then
 * a quarter turn q that swaps and negates them.  Its error is below
 * 3 * 2^-53.  The polynomials are where a contracted multiply-add would
 * change the most bits, hence -ffp-contract=off.  The encounter's hitting
 * probability still calls libm log, and its annulus libm hypot for the
 * modulus of the disk's center, as _grid.c does.
 *
 * Grid index arrays (spatial.DiskGridIndex): disk centers cx, cy and radii;
 * the candidate lists cell_items[cell_start[c] .. cell_start[c + 1]) of each
 * cell c; the clearance of each cell; and, per disk, the clearance D of its
 * encounter annulus, positive exactly for the point-like disks (a disk's
 * clearance is at least its positive gap to the rest of the boundary) and
 * 0 for the others.
 *
 * Outputs per walk: exit code (0 exterior, k + 1 bubble k, -1 for a walk
 * over budget), uniforms drawn, path length and exit position.
 * A walk fails once it has drawn max_steps uniforms, even when it would
 * exit at once.  Returns the number of failed walks; stuck[] gets where the
 * lowest-index one stopped, which need not be the first to fail: an
 * encounter draws two uniforms, so a later walk can reach the budget in an
 * earlier round.
 */
#include <math.h>
#include <stdint.h>

#define CODE_EXTERIOR 0
#define CODE_FAILED (-1)

/* Walks in flight: each step is one chain of dependent loads and
 * arithmetic (position, cell, candidate list, disks, sqrt, step), so the
 * kernel advances LANES independent walks in turn, one step each, and the
 * core overlaps their chains.  CPU time on a 2-core x86-64 VM, least of 15
 * runs, in three rounds: the six perfbench ladder rungs (20,000 walks
 * each) took 0.41-0.51 s with one walk at a time, 0.30-0.34 s with 2
 * lanes, 0.29-0.30 s with 3, 0.30-0.32 s with 4, 0.34-0.35 s with 5,
 * 0.35-0.37 s with 6 and 0.37-0.39 s with 8; 4,000 walks on the
 * 10,230-bubble floor domain took 19.6-20.7 ms, 15.1-16.0 ms with 3
 * lanes, 15.1-15.3 ms with 4 and 16.9-17.9 ms with 5. */
#define LANES 4

/* SplitMix64, as champagne.streams: the uniform at counter t of stream key */
static uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static double uniform_at(uint64_t key, int64_t t)
{
    return (double)(mix64(key + ((uint64_t)t + 1) * 0x9E3779B97F4A7C15ULL) >> 11) * 0x1p-53;
}

/* the stream key of walk w, as champagne.streams.stream_keys */
static uint64_t walk_key(uint64_t seed, int64_t w)
{
    return mix64(mix64((uint64_t)(w + 1) * 0x9E3779B97F4A7C15ULL) ^ seed);
}

/* (cos 2 pi u, sin 2 pi u) for u in [0, 1).  The coefficients are
 * +-(2 pi)^n / n! rounded to double; the polynomials are summed in Estrin's
 * order, which halves the chain of dependent operations of Horner's.
 * u = 1 - 2^-53 rounds to q = 4, a whole turn. */
static void direction(double u, double *dx, double *dy)
{
    /* q = 0: (c, s), 1: (-s, c), 2: (-c, -s), 3: (s, -c), 4: (c, s) */
    static const int ix[5] = {0, 3, 2, 1, 0}, iy[5] = {1, 0, 3, 2, 1};
    const int q = (int)(4.0 * u + 0.5);
    const double r = u - 0.25 * q;
    const double r2 = r * r, r4 = r2 * r2, r8 = r4 * r4;
    const double s = 6.283185307179586 * r + (r * r2) * (
        (-41.34170224039976 + r2 * 81.60524927607506)
        + r4 * (-76.70585975306139 + r2 * 42.058693944897655)
        + r8 * ((-15.09464257682299 + r2 * 3.819952584848282) + r4 * -0.7181223017785006));
    const double c = 1.0 + r2 * (
        (-19.739208802178716 + r2 * 64.9393940226683)
        + r4 * (-85.45681720669373 + r2 * 60.24464137187666)
        + r8 * ((-26.4262567833744 + r2 * 7.903536371318469)
                + r4 * (-1.714390711088672 + r2 * 0.28200596845579123)));
    const double v[4] = {c, s, -c, -s};
    *dx = v[ix[q]];
    *dy = v[iy[q]];
}

int64_t walk_range(const double *cx, const double *cy, const double *radii,
                   const int64_t *cell_start, const int32_t *cell_items,
                   const double *clearance, const double *enc_clearance,
                   int64_t n_side, double half_width, double inv_h, double h,
                   const double *sx, const double *sy, const uint64_t *seeds,
                   int64_t per_start, double eps, double enc_trigger, double r_out,
                   int64_t w0, int64_t w1, int64_t max_steps,
                   int64_t *code, int64_t *steps, double *path,
                   double *ex, double *ey, double *stuck)
{
    /* the walk, stream key, position, path length and draws of each lane;
     * a lane whose walk is -1 is free */
    int64_t lane_w[LANES], lane_t[LANES];
    uint64_t lane_key[LANES];
    double lane_x[LANES], lane_y[LANES], lane_len[LANES];
    int64_t next = w0, left = w1 - w0, n_failed = 0, least_failed = w1;
    for (int l = 0; l < LANES; l++)
        lane_w[l] = -1;
    while (left > 0) {
        for (int l = 0; l < LANES; l++) {
            if (lane_w[l] < 0) {
                /* a free lane begins the next unstarted walk */
                if (next == w1)
                    continue;
                const int64_t s = next / per_start;
                lane_key[l] = walk_key(seeds[s], next - s * per_start);
                lane_x[l] = sx[s];
                lane_y[l] = sy[s];
                lane_len[l] = 0.0;
                lane_t[l] = 0;
                lane_w[l] = next++;
            }
            const int64_t w = lane_w[l];
            const uint64_t key = lane_key[l];
            double x = lane_x[l], y = lane_y[l], len = lane_len[l];
            int64_t t = lane_t[l], c;
            if (t >= max_steps)
                goto failed;
            const double mod = sqrt(x * x + y * y);
            const double d_ext = r_out - mod;
            int64_t ix = (int64_t)((x + half_width) * inv_h);
            int64_t iy = (int64_t)((y + half_width) * inv_h);
            ix = ix < 0 ? 0 : ix > n_side - 1 ? n_side - 1 : ix;
            iy = iy < 0 ? 0 : iy > n_side - 1 ? n_side - 1 : iy;
            const int64_t cell = ix * n_side + iy;

            /* nearest candidate surface; a cell lists its disks by
             * increasing index, so the lowest index wins ties */
            double cand = INFINITY;
            int64_t near = -1;
            for (int64_t k = cell_start[cell]; k < cell_start[cell + 1]; k++) {
                const int64_t i = cell_items[k];
                const double dx = x - cx[i], dy = y - cy[i];
                const double d = sqrt(dx * dx + dy * dy) - radii[i];
                if (d < cand) {
                    cand = d;
                    near = i;
                }
            }
            const double d_bub = cand <= h ? cand : clearance[cell] > h ? clearance[cell] : h;
            const double step = d_ext < d_bub ? d_ext : d_bub;

            c = d_ext <= cand ? CODE_EXTERIOR : near + 1;
            if (step < eps)
                goto record;

            if (cand < enc_trigger && enc_clearance[near] > 0.0) {
                /* point-like encounter: the exact annulus hitting law */
                c = near + 1;
                const double rho0 = cand + radii[near];
                const double ann = r_out - hypot(cx[near], cy[near]);
                const double big_d = enc_clearance[near] < ann ? enc_clearance[near] : ann;
                if (big_d <= (rho0 > enc_trigger ? 4.0 * rho0 : 4.0 * enc_trigger))
                    goto record;  /* cramped: a hit, with no draw */
                const double p_hit = (log(big_d) - log(rho0)) / (log(big_d) - log(radii[near]));
                if (uniform_at(key, t++) < p_hit) {
                    if (t >= max_steps)
                        goto failed;
                    goto record;
                }
                double dx, dy;
                direction(uniform_at(key, t++), &dx, &dy);
                x = cx[near] + big_d * dx;
                y = cy[near] + big_d * dy;
                len += big_d;
            } else {
                double dx, dy;
                direction(uniform_at(key, t++), &dx, &dy);
                x += step * dx;
                y += step * dy;
                len += step;
            }
            lane_x[l] = x;
            lane_y[l] = y;
            lane_len[l] = len;
            lane_t[l] = t;
            continue;
        failed:
            /* a later walk may fail in an earlier round */
            n_failed++;
            if (w < least_failed) {
                least_failed = w;
                stuck[0] = x;
                stuck[1] = y;
            }
            c = CODE_FAILED;
        record:
            code[w - w0] = c;
            steps[w - w0] = t;
            path[w - w0] = len;
            ex[w - w0] = x;
            ey[w - w0] = y;
            lane_w[l] = -1;
            left--;
        }
    }
    return n_failed;
}
