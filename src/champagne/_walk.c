/* Walk-on-spheres kernel: walks [w0, w1) of one estimate, each run to its
 * exit before the next starts.  The sampler is the one walker.py documents;
 * this file fixes only its arithmetic, which must match the array kernel
 * kept in the tests bit for bit.  So it is built with -ffp-contract=off and
 * without -ffast-math: a fused multiply-add or a vector libm would change
 * the last bits of positions, and with them every later draw.
 *
 * A jump direction, and the exit angle of a point-like encounter, is
 * (cos 2 pi u, sin 2 pi u) of one uniform u, computed without libm trig,
 * whose last bits differ between platforms: u = q/4 + r with q the nearest
 * quarter turn and r in [-1/8, 1/8] turns (both exact), the Taylor
 * polynomials of sin 2 pi r and cos 2 pi r through r^15 and r^16, then
 * a quarter turn q that swaps and negates them.  Its error is below
 * 3 * 2^-53.  The polynomials are where a contracted multiply-add would
 * change the most bits, hence -ffp-contract=off.  The encounter's hitting
 * probability still calls libm log.
 *
 * Grid index arrays (spatial.DiskGridIndex): disk centers cx, cy and radii;
 * the candidate lists cell_items[cell_start[c] .. cell_start[c + 1]) of each
 * cell c; the clearance of each cell; and, per disk, the point-like flag and
 * the encounter annulus data.
 *
 * Outputs per walk: exit code (0 exterior, k + 1 bubble k, -1 for a walk
 * over budget), uniforms drawn, path length and exit position.
 * A walk fails once it has drawn max_steps uniforms, even when it would
 * exit at once.  Returns the number of failed walks; stuck[] gets where the
 * lowest-index one stopped.
 */
#include <math.h>
#include <stdint.h>

#define CODE_EXTERIOR 0
#define CODE_FAILED (-1)

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
                   const double *clearance, const uint8_t *pointlike,
                   const double *enc_clearance, const double *enc_modulus,
                   int64_t n_side, double half_width, double inv_h, double h,
                   double x0, double y0, double eps, double enc_trigger,
                   double r_out, uint64_t seed,
                   int64_t w0, int64_t w1, int64_t max_steps,
                   int64_t *code, int64_t *steps, double *path,
                   double *ex, double *ey, double *stuck)
{
    int64_t n_failed = 0;
    for (int64_t w = w0; w < w1; w++) {
        const uint64_t key = mix64(mix64((uint64_t)(w + 1) * 0x9E3779B97F4A7C15ULL) ^ seed);
        double x = x0, y = y0, len = 0.0;
        int64_t t = 0, c;
        for (;;) {
            if (t >= max_steps)
                goto failed;
            const double mod = sqrt(x * x + y * y);
            const double d_ext = r_out - mod;
            int64_t ix = (int64_t)((x + half_width) * inv_h);
            int64_t iy = (int64_t)((y + half_width) * inv_h);
            ix = ix < 0 ? 0 : ix > n_side - 1 ? n_side - 1 : ix;
            iy = iy < 0 ? 0 : iy > n_side - 1 ? n_side - 1 : iy;
            const int64_t cell = ix * n_side + iy;

            /* nearest candidate surface, the lowest index winning ties */
            double cand = INFINITY;
            int64_t near = -1;
            for (int64_t k = cell_start[cell]; k < cell_start[cell + 1]; k++) {
                const int64_t i = cell_items[k];
                const double dx = x - cx[i], dy = y - cy[i];
                const double d = sqrt(dx * dx + dy * dy) - radii[i];
                if (d < cand || (d == cand && i < near)) {
                    cand = d;
                    near = i;
                }
            }
            const double d_bub = cand <= h ? cand : clearance[cell] > h ? clearance[cell] : h;
            const double step = d_ext < d_bub ? d_ext : d_bub;

            c = d_ext <= cand ? CODE_EXTERIOR : near + 1;
            if (step < eps)
                break;

            if (cand < enc_trigger && pointlike[near]) {
                /* point-like encounter: the exact annulus hitting law */
                c = near + 1;
                const double rho0 = cand + radii[near];
                const double ann = r_out - enc_modulus[near];
                const double big_d = enc_clearance[near] < ann ? enc_clearance[near] : ann;
                if (big_d <= (rho0 > enc_trigger ? 4.0 * rho0 : 4.0 * enc_trigger))
                    break;  /* cramped: a hit, with no draw */
                const double p_hit = (log(big_d) - log(rho0)) / (log(big_d) - log(radii[near]));
                if (uniform_at(key, t++) < p_hit) {
                    if (t >= max_steps)
                        goto failed;
                    break;
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
        }
        goto record;
    failed:
        if (n_failed++ == 0) {
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
    }
    return n_failed;
}
