/* Charge matrix of the harmonic-measure bounds (barriers._charge_matrix):
 * for each point s_p and group j of zeros, the matrix entry
 *
 *     out[p * n_groups + j] = -log|B_j(s_p)|,   |B_j(s)|^2 = prod_{lambda in group j} rho(s, lambda)^2,
 *
 * with one log per group, not one per zero, in one pass over the zeros per
 * point.  An empty group gives 0.  Each factor is the square of rho as
 * hyperbolic.pseudo_distance_many forms it: d^2 / b^2, with d^2 =
 * |s - lambda|^2 and b^2 = d^2 + (1 - |s|^2)(1 - |lambda|^2) =
 * |1 - conj(lambda) s|^2, so every factor lies in [0, 1]; where d^2 <
 * TINY_SQUARE, rho = hypot(dx, dy) / sqrt(b^2) enters twice.  A group's
 * product is kept as m 2^e, m renormalized by frexp whenever a factor
 * would take it below 2^-900, so no product underflows however many zeros
 * a group holds.  A point on a zero gets +inf in that zero's group.  Not
 * bit-identical to the array sum kept in the tests, which takes one log of
 * pseudo_distance_many per pair; they differ by about a rounding per log.
 *
 * Points and zeros are complex128 arrays read as interleaved (re, im)
 * doubles.  Group j's zeros are zeros[group_start[j] .. group_start[j + 1]).
 */
#include <math.h>
#include <stdint.h>

#define LN2 0.6931471805599453   /* math.log(2.0) */
#define RENORM 0x1p-900          /* products below this are renormalized */
#define TINY_SQUARE 1e-300       /* hyperbolic.TINY_SQUARE: |s - lambda| < 1e-150 */

/* (*m) 2^(*e) times x, for m in {0} u [2^-900, 1] and x in [0, 1], as a
 * product of frexp mantissas and a sum of exponents, which cannot
 * underflow: for factors that would take m below 2^-900. */
static void renormalize(double *m, int64_t *e, double x)
{
    int k1, k2;
    const double f1 = frexp(*m, &k1), f2 = frexp(x, &k2);
    *m = f1 * f2;             /* in [1/4, 1), or 0 on a zero */
    *e += (int64_t)k1 + k2;
}

void barrier_potential(const double *zeros, const int64_t *group_start, int64_t n_groups,
                       const double *pts, int64_t n_pts, double *out)
{
    for (int64_t p = 0; p < n_pts; p++) {
        const double sx = pts[2 * p], sy = pts[2 * p + 1];
        const double gap_s = 1.0 - (sx * sx + sy * sy);
        for (int64_t j = 0; j < n_groups; j++) {
            double m = 1.0;
            int64_t e = 0;
            for (int64_t k = group_start[j]; k < group_start[j + 1]; k++) {
                const double lx = zeros[2 * k], ly = zeros[2 * k + 1];
                const double dx = sx - lx, dy = sy - ly;
                const double d2 = dx * dx + dy * dy;
                const double gaps = gap_s * (1.0 - (lx * lx + ly * ly));
                if (d2 >= TINY_SQUARE) {
                    const double x = d2 / (d2 + gaps), t = m * x;
                    if (t >= RENORM)
                        m = t;
                    else
                        renormalize(&m, &e, x);
                } else {
                    /* |s - lambda|^2 would lose bits or underflow: rho twice */
                    const double rho = hypot(dx, dy) / sqrt(d2 + gaps);
                    renormalize(&m, &e, rho);
                    renormalize(&m, &e, rho);
                }
            }
            /* log |B_j|^2 = log m + e log 2; -inf on a zero */
            out[p * n_groups + j] = -0.5 * (log(m) + (double)e * LN2);
        }
    }
}
