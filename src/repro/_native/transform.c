/* Transform plane: the DSkellam rotation's butterfly and its rounder
 * (repro.dp.rotation.fwht, repro.dp.quantize.stochastic_round).
 *
 * The Walsh-Hadamard transform is *defined* as the butterfly
 * (a, b) -> (a + b, a - b) at strides h = 1, 2, 4, ... n/2 in that
 * order, so every output is one fixed tree of IEEE additions and
 * subtractions (-ffp-contract=off has nothing to fuse here).
 * repro.dp.rotation holds the bit-identical numpy twin.
 */

#include "kernels.h"

/* In-place unnormalised transform of n doubles.  Returns 0, -1 unless
 * n is a power of two (or 0: nothing to do). */
int repro_fwht(double *v, size_t n)
{
    size_t h, i, j;

    if ((n & (n - 1)) || (v == NULL && n))
        return -1;
    for (h = 1; h < n; h *= 2)
        for (i = 0; i < n; i += 2 * h)
            for (j = i; j < i + h; j++) {
                double a = v[j], b = v[j + h];

                v[j] = a + b;
                v[j + h] = a - b;
            }
    return 0;
}

/* out[i] = floor(x[i]) + (u[i] < x[i] - floor(x[i])): x rounded up with
 * probability frac(x) when u is uniform on [0, 1) — the caller draws u.
 * The floor is taken through the integer (exact below 2**62, where the
 * cast is defined).  Returns 0; -2, with out unspecified, at the first
 * element that is NaN, infinite, outside (-2**62, 2**62) or rounds
 * outside [-limit, limit); -1 on bad arguments. */
int repro_stochastic_round(const double *x, const double *u, size_t n,
                           int64_t limit, int64_t *out)
{
    const double cast_bound = 4611686018427387904.0; /* 2**62 */
    size_t i;

    if (x == NULL || u == NULL || out == NULL || limit < 1)
        return -1;
    for (i = 0; i < n; i++) {
        double xi = x[i], below;
        int64_t k, above;

        if (!(xi > -cast_bound && xi < cast_bound))
            return -2;
        k = (int64_t)xi; /* towards zero: one too high below zero */
        above = (double)k > xi;
        k -= above;
        below = (double)k;
        k += u[i] < xi - below;
        if (k < -limit || k >= limit)
            return -2;
        out[i] = k;
    }
    return 0;
}
