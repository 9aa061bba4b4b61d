/* Sampler plane: Skellam noise from the counter stream (repro.dp.sampler).
 *
 * The loop half of the sampler specified in repro/dp/sampler.py, which
 * builds the strip table and holds the bit-identical numpy twin.  Word t
 * of the counter stream (stream.c; big-endian u64) is one trial: its top 10
 * bits pick a strip, the other 54, as the fraction F = w << 10, are
 * multiplied by the strip's width: the high word is the offset inside
 * the strip (k = base +- j), the low word the acceptance uniform.
 * rem <= threshold accepts on integers alone; otherwise the trial is
 * accepted iff (rem >> 11) * 2^-53 * hat <= g(k).
 *
 * g(k) = sqrt(2 pi z) e^-z I_k(z) is evaluated with + - * / on doubles
 * only -- no libm, no contraction (the build passes -ffp-contract=off),
 * every coefficient an exact integer ratio or a hex literal -- in the
 * same order as _log_weight/_exp_scalar in sampler.py, so the two agree
 * to the last bit on any IEEE 754 host.  Valid for z >= 2^20 and
 * |k| <= 16 sqrt(z), which is all the table ever holds.
 *
 * Not constant-time: the words consumed depend on the values drawn.
 */

#include "kernels.h"

typedef struct {
    int64_t base;       /* k = base + j, or base - j when width < 0 */
    int64_t width;      /* |width| integers in the strip, < 2^32 */
    uint64_t threshold; /* squeeze: rem <= threshold accepts */
    double hat;
} skellam_strip;

static double skellam_log_weight(double k, double z)
{
    double t = k / z;
    double u = t * t;
    double exponent = u * (-0.5 + u * (1.0 / 24.0 + u * (-1.0 / 80.0
        + u * (5.0 / 896.0 + u * (-7.0 / 2304.0 + u * (21.0 / 11264.0))))));
    double log1p_u = u * (1.0 - u * (0.5 - u * (1.0 / 3.0
        - u * (0.25 - u * (1.0 / 5.0)))));
    double root = 1.0 + u * (0.5 - u * (0.125 - u * 0.0625));
    double v = 1.0 + u;
    double p2 = u / v;
    double c = (3.0 - 5.0 * p2) / (24.0 * (z * root))
        + (81.0 - p2 * (462.0 - 385.0 * p2)) / (1152.0 * (z * z * v));
    double log1p_c = c * (1.0 - c * (0.5 - c * (1.0 / 3.0)));
    return z * exponent - 0.25 * log1p_u + log1p_c;
}

/* e^x for -700 < x < 0.3: Cody-Waite reduction by ln 2 (fdlibm's split),
 * the degree-13 Taylor polynomial, 2^n written into the exponent bits. */
static double skellam_exp(double x)
{
    static const double inv_factorial[14] = {
        1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0,
        1.0 / 720.0, 1.0 / 5040.0, 1.0 / 40320.0, 1.0 / 362880.0,
        1.0 / 3628800.0, 1.0 / 39916800.0, 1.0 / 479001600.0,
        1.0 / 6227020800.0,
    };
    int64_t n = (int64_t)(x * 0x1.71547652b82fep+0 - 0.5);
    double r = (x - (double)n * 0x1.62e42fee00000p-1)
        - (double)n * 0x1.a39ef35793c76p-33;
    double acc = inv_factorial[13], scale;
    uint64_t bits = (uint64_t)(n + 1023) << 52;
    int i;

    for (i = 12; i >= 0; i--)
        acc = inv_factorial[i] + r * acc;
    memcpy(&scale, &bits, sizeof(scale));
    return acc * scale;
}

/* The weight alone, so the loader's probe can check the floating point
 * above against the Python evaluation to the last bit. */
double repro_skellam_weight(double k, double z)
{
    return skellam_exp(skellam_log_weight(k, z));
}

#define SKELLAM_STRIP_BITS 10 /* a word's top bits index the table */
#define SKELLAM_BLOCKS 64     /* stream generated per refill: 2 KiB, 256 words */

/* Adds sign * k of the first n accepted trials of seed's stream (from
 * counter 0) into out[0..n), in order.  The stream is produced here, a
 * refill at a time, so it never leaves the cache and never runs out.
 * Returns 0, -1 on bad arguments (seedlen > 47 included, whatever n is). */
int repro_skellam_fill(const uint8_t *seed, size_t seedlen,
                       const skellam_strip *strips, size_t nstrips,
                       double z, int64_t sign, int64_t *out, size_t n)
{
    uint8_t stream[32 * SKELLAM_BLOCKS];
    uint64_t ctr = 0;
    size_t filled = 0, t;

    if (seed == NULL || seedlen > 47 || strips == NULL || out == NULL
        || nstrips < 1 || nstrips > ((size_t)1 << SKELLAM_STRIP_BITS)
        || (sign != 1 && sign != -1))
        return -1;
    while (filled < n) {
        if (ctr_stream(seed, seedlen, ctr, SKELLAM_BLOCKS, stream))
            return -1;
        ctr += SKELLAM_BLOCKS;
        for (t = 0; t < 4 * SKELLAM_BLOCKS && filled < n; t++) {
            uint64_t w = load_be64(stream + 8 * t);
            uint64_t row = w >> (64 - SKELLAM_STRIP_BITS);
            uint64_t fraction = w << SKELLAM_STRIP_BITS, span, offset, rem;
            int64_t flip, k;
            const skellam_strip *s;

            if (row >= nstrips)
                continue;
            s = &strips[row];
            flip = s->width >> 63; /* 0, or -1 for a strip growing downward */
            span = (uint64_t)((s->width ^ flip) - flip);
#ifdef __SIZEOF_INT128__
            {
                unsigned __int128 product = (unsigned __int128)fraction * span;
                offset = (uint64_t)(product >> 64);
                rem = (uint64_t)product;
            }
#else
            offset = ((fraction >> 32) * span
                      + (((fraction & 0xffffffffu) * span) >> 32)) >> 32;
            rem = fraction * span;
#endif
            k = s->base + (((int64_t)offset ^ flip) - flip);
            if (rem > s->threshold
                && !((double)(rem >> 11) * 0x1p-53 * s->hat
                     <= skellam_exp(skellam_log_weight((double)k, z))))
                continue;
            out[filled++] += sign * k;
        }
    }
    return 0;
}
