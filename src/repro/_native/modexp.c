/* Modexp plane: fixed-width modular exponentiation
 * (repro.crypto.dh.DHGroup.powers).
 *
 * out[i] = bases[i]**exp mod p for i in [0, count), one shared exponent:
 * every power a party takes in one protocol stage uses the same secret
 * (a client's c- or s-key against each neighbour, the coordinator's
 * reconstructed s_u^SK against each survivor), so a call takes the whole
 * neighbourhood.  The modulus is odd, n 64-bit limbs wide, n <= 64.
 * Operands cross the boundary as big-endian bytes, 8*n wide each (the
 * bases concatenated, the exponent explen wide); the caller supplies
 * R^2 mod p for both radixes below, computed once per group.
 *
 * Two loops compute the same integers:
 *
 * - scalar: one base at a time, 64-bit-limb Montgomery multiplication
 *   (the CIOS recurrence) with a conditional subtraction under a mask;
 * - eight lanes (AVX-512 IFMA): eight bases side by side, one per 64-bit
 *   element of a zmm register, each operand a column of k 52-bit digits
 *   (vpmadd52luq / vpmadd52huq add the low / high 52 bits of a 104-bit
 *   product).  Multiplication is almost-Montgomery (AMM52, Gueron and
 *   Krasnov, ARITH 2016; OpenSSL's rsaz_avx512ifma): with
 *   k = ceil((bits + 2) / 52) digits, 4p < R = 2^(52k), so inputs below
 *   2p give an output below 2p and no multiplication subtracts; one
 *   masked subtraction per lane after leaving Montgomery form brings the
 *   result below p.  Digits are carried back under 2^52 after every
 *   multiplication.  Taken for groups of two bases or more when the CPU
 *   has avx512ifma and k <= 40 (moduli up to 2048 bits).
 *
 * Both consume the exponent in fixed 4-bit windows, most significant
 * first.  What does not depend on the exponent's value or on
 * intermediate values: the sequence of multiplications (four squarings
 * and one multiply for every window of the explen bytes given, zero
 * windows included — the caller pads to whole limbs, so only the
 * exponent's limb count shows), the table read (all sixteen entries are
 * scanned and combined under a mask — in the lanes one mask for all
 * eight, since they share the exponent) and every subtraction (computed
 * always, selected under a mask).  That is strictly better than
 * CPython's pow(), which skips zero windows and trims leading zero
 * digits — but nothing here pins what the compiler makes of it or what
 * the cache and the multiplier leak, so this is not a
 * side-channel-hardened library.  The modulus, its width, the number of
 * bases and base < p are public and are branched on.
 *
 * Needs a 128-bit integer type; without one the entry points report -3
 * and the caller keeps pow(), which returns the same integers.  The
 * lanes live under the AVX-512 gate of the stream lanes (kernels.h:
 * -DREPRO_NO_X16 leaves them out too).
 */

#include "kernels.h"

#define MODEXP_MAX_LIMBS 64
#define MODEXP_PATH_SCALAR 1
#define MODEXP_PATH_LANES 2
#define MODEXP_LANES 8

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static void load_be_limbs(uint64_t *dst, const uint8_t *src, size_t n)
{
    size_t i;
    int j;
    for (i = 0; i < n; i++) {
        const uint8_t *s = src + 8 * (n - 1 - i);
        uint64_t w = 0;
        for (j = 0; j < 8; j++)
            w = (w << 8) | s[j];
        dst[i] = w;
    }
}

static void store_be_limbs(uint8_t *dst, const uint64_t *src, size_t n)
{
    size_t i;
    int j;
    for (i = 0; i < n; i++) {
        uint8_t *d = dst + 8 * (n - 1 - i);
        for (j = 0; j < 8; j++)
            d[j] = (uint8_t)(src[i] >> (56 - 8 * j));
    }
}

/* borrow out of a - p: 1 iff a < p.  d, when given, receives a - p. */
static uint64_t sub_limbs(uint64_t *d, const uint64_t *a, const uint64_t *p,
                          size_t n)
{
    uint64_t borrow = 0;
    size_t j;
    for (j = 0; j < n; j++) {
        u128 s = (u128)a[j] - p[j] - borrow;
        if (d)
            d[j] = (uint64_t)s;
        borrow = (uint64_t)(s >> 64) & 1;
    }
    return borrow;
}

/* -1/p mod 2**64 for odd p: Newton's iteration doubles the correct low
 * bits of 1/p[0] (an odd x is its own inverse mod 8). */
static uint64_t mont_n0(uint64_t p0)
{
    uint64_t x = p0;
    int i;
    for (i = 0; i < 5; i++)
        x *= 2 - p0 * x;
    return (uint64_t)0 - x;
}

/* r = a*b/R mod p for a, b < p; n0 = -1/p mod 2**64.  r may alias a, b.
 * The carry chain bounds both inner loops; unrolling them is worth a
 * quarter of the run time at 32 limbs. */
static void mont_mul(uint64_t *r, const uint64_t *a, const uint64_t *b,
                     const uint64_t *p, uint64_t n0, size_t n)
{
    uint64_t t[MODEXP_MAX_LIMBS + 2], d[MODEXP_MAX_LIMBS];
    uint64_t mask;
    size_t i, j;

    memset(t, 0, (n + 2) * sizeof(uint64_t));
    for (i = 0; i < n; i++) {
        uint64_t bi = b[i], c = 0, m;
        u128 x;

#pragma GCC unroll 8
        for (j = 0; j < n; j++) {
            x = (u128)a[j] * bi + t[j] + c;
            t[j] = (uint64_t)x;
            c = (uint64_t)(x >> 64);
        }
        x = (u128)t[n] + c;
        t[n] = (uint64_t)x;
        t[n + 1] = (uint64_t)(x >> 64);

        m = t[0] * n0;
        x = (u128)m * p[0] + t[0];
        c = (uint64_t)(x >> 64);
#pragma GCC unroll 8
        for (j = 1; j < n; j++) {
            x = (u128)m * p[j] + t[j] + c;
            t[j - 1] = (uint64_t)x;
            c = (uint64_t)(x >> 64);
        }
        x = (u128)t[n] + c;
        t[n - 1] = (uint64_t)x;
        t[n] = t[n + 1] + (uint64_t)(x >> 64);
    }
    /* t < 2p: subtract p exactly when t >= p, without branching on it. */
    mask = (uint64_t)0 - (t[n] | (sub_limbs(d, t, p, n) ^ 1));
    for (j = 0; j < n; j++)
        r[j] = (d[j] & mask) | (t[j] & ~mask);
}

/* acc = acc**exp mod p on the scalar loop; acc < p on entry. */
static void modexp_scalar(uint64_t *acc, const uint64_t *p, const uint64_t *rr,
                          uint64_t n0, size_t n, const uint8_t *exp,
                          size_t explen)
{
    uint64_t one[MODEXP_MAX_LIMBS], sel[MODEXP_MAX_LIMBS];
    uint64_t table[16][MODEXP_MAX_LIMBS];
    size_t i, j, k;
    int shift;

    /* table[k] = base**k in Montgomery form; table[0] = R mod p. */
    memset(one, 0, n * sizeof(uint64_t));
    one[0] = 1;
    mont_mul(table[0], rr, one, p, n0, n);
    mont_mul(table[1], acc, rr, p, n0, n);
    for (k = 2; k < 16; k++)
        mont_mul(table[k], table[k - 1], table[1], p, n0, n);

    memcpy(acc, table[0], n * sizeof(uint64_t));
    for (i = 0; i < explen; i++) {
        for (shift = 4; shift >= 0; shift -= 4) {
            uint64_t w = (exp[i] >> shift) & 15;

            for (k = 0; k < 4; k++)
                mont_mul(acc, acc, acc, p, n0, n);
            memset(sel, 0, n * sizeof(uint64_t));
            for (k = 0; k < 16; k++) {
                /* all ones iff k == w */
                uint64_t mask = (uint64_t)0 - (((k ^ w) - 1) >> 63);
                for (j = 0; j < n; j++)
                    sel[j] |= table[k][j] & mask;
            }
            mont_mul(acc, acc, sel, p, n0, n);
        }
    }
    mont_mul(acc, acc, one, p, n0, n);
}

#define AMM52_MAX_DIGITS 40 /* ceil((2048 + 2) / 52): the lanes' widest */

/* 52-bit digits for an n-limb modulus: the least k with 4p < 2^(52k). */
static size_t amm52_digits(size_t n)
{
    return (64 * n + 2 + 51) / 52;
}

#ifdef HAVE_X16_BUILD
#define HAVE_AMM52_BUILD 1
#define AMM52_TARGET __attribute__((target("avx512f,avx512ifma")))
#define DIGIT_MASK ((UINT64_C(1) << 52) - 1)

/* 52-bit digits of the n limbs x: digit i is bits [52i, 52i + 52). */
static void limbs_to_digits(uint64_t *d, size_t k, const uint64_t *x, size_t n)
{
    size_t i;
    for (i = 0; i < k; i++) {
        size_t w = 52 * i / 64;
        unsigned s = (unsigned)(52 * i % 64);
        uint64_t v = w < n ? x[w] >> s : 0;

        if (s > 12 && w + 1 < n)
            v |= x[w + 1] << (64 - s);
        d[i] = v & DIGIT_MASK;
    }
}

/* The inverse, for a value below 2^(64n). */
static void digits_to_limbs(uint64_t *x, size_t n, const uint64_t *d, size_t k)
{
    size_t i;
    memset(x, 0, n * sizeof(uint64_t));
    for (i = 0; i < k; i++) {
        size_t w = 52 * i / 64;
        unsigned s = (unsigned)(52 * i % 64);

        if (w < n)
            x[w] |= d[i] << s;
        if (s > 12 && w + 1 < n)
            x[w + 1] |= d[i] >> (64 - s);
    }
}

/* r = a*b/2^(52k) mod p, almost: a, b below 2p in k digits under 2^52
 * give r below 2p in the same form.  Eight independent lanes; n0 is
 * -1/p mod 2^52.  Operand scanning over a window of t that slides one
 * digit a step (t + i is the running sum shifted right by i digits), so
 * no digit is ever moved; each slot collects at most 4(k + 1) products
 * of 52 bits and a carry, far below 2^64.  r may alias a or b: it is
 * written only after the last read. */
AMM52_TARGET
static void amm52_x8(__m512i *r, const __m512i *a, const __m512i *b,
                     const __m512i *p, __m512i n0, size_t k)
{
    __m512i t[2 * AMM52_MAX_DIGITS];
    const __m512i zero = _mm512_setzero_si512();
    const __m512i mask = _mm512_set1_epi64((long long)DIGIT_MASK);
    __m512i carry = zero;
    size_t i, j;

    LANE_ENTRY();
    for (j = 0; j < 2 * k; j++)
        t[j] = zero;
    for (i = 0; i < k; i++) {
        __m512i *acc = t + i, bi = b[i], m, x;

        acc[0] = _mm512_madd52lo_epu64(acc[0], a[0], bi);
        m = _mm512_madd52lo_epu64(zero, acc[0], n0);
        acc[0] = _mm512_madd52lo_epu64(acc[0], m, p[0]);
        /* Digit j takes the low halves of products j and the high halves
         * of products j - 1; the ones that wait for m go last. */
        for (j = 1; j < k; j++) {
            x = _mm512_madd52lo_epu64(acc[j], a[j], bi);
            x = _mm512_madd52hi_epu64(x, a[j - 1], bi);
            x = _mm512_madd52lo_epu64(x, m, p[j]);
            acc[j] = _mm512_madd52hi_epu64(x, m, p[j - 1]);
        }
        x = _mm512_madd52hi_epu64(acc[k], a[k - 1], bi);
        acc[k] = _mm512_madd52hi_epu64(x, m, p[k - 1]);
        /* acc[0] is 0 mod 2^52 now: only its carry is left. */
        acc[1] = _mm512_add_epi64(acc[1], _mm512_srli_epi64(acc[0], 52));
    }
    /* The sum is below 2p < 2^(52k): carrying leaves nothing past digit k-1. */
    for (j = 0; j < k; j++) {
        __m512i v = _mm512_add_epi64(t[k + j], carry);

        r[j] = _mm512_and_si512(v, mask);
        carry = _mm512_srli_epi64(v, 52);
    }
}

/* out[i] = bases[i]**exp mod p for count <= 8 bases, one per lane; every
 * base is below p (checked by the caller).  Idle lanes raise zero. */
AMM52_TARGET
static void modexp_lanes(const uint64_t *p, const uint8_t *rr52, size_t n,
                         const uint8_t *bases, size_t count,
                         const uint8_t *exp, size_t explen, uint8_t *out)
{
    const size_t k = amm52_digits(n);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i n0 = _mm512_set1_epi64((long long)(mont_n0(p[0]) & DIGIT_MASK));
    uint64_t limbs[MODEXP_MAX_LIMBS], digits[AMM52_MAX_DIGITS];
    uint64_t column[AMM52_MAX_DIGITS][MODEXP_LANES] __attribute__((aligned(64)));
    __m512i mod[AMM52_MAX_DIGITS], rr[AMM52_MAX_DIGITS], one[AMM52_MAX_DIGITS];
    __m512i acc[AMM52_MAX_DIGITS], sel[AMM52_MAX_DIGITS];
    __m512i table[16][AMM52_MAX_DIGITS];
    __m512i borrow = zero;
    __mmask8 keep;
    size_t i, j, lane;
    uint64_t e;
    int shift;

    LANE_ENTRY();
    limbs_to_digits(digits, k, p, n);
    for (j = 0; j < k; j++)
        mod[j] = _mm512_set1_epi64((long long)digits[j]);
    load_be_limbs(limbs, rr52, n);
    limbs_to_digits(digits, k, limbs, n);
    for (j = 0; j < k; j++) {
        rr[j] = _mm512_set1_epi64((long long)digits[j]);
        one[j] = j ? zero : _mm512_set1_epi64(1);
    }
    memset(column, 0, sizeof(column));
    for (lane = 0; lane < count; lane++) {
        load_be_limbs(limbs, bases + 8 * n * lane, n);
        limbs_to_digits(digits, k, limbs, n);
        for (j = 0; j < k; j++)
            column[j][lane] = digits[j];
    }
    for (j = 0; j < k; j++)
        acc[j] = _mm512_load_si512((const void *)column[j]);

    /* table[w] = base**w in Montgomery form; table[0] = R mod p. */
    amm52_x8(table[0], rr, one, mod, n0, k);
    amm52_x8(table[1], acc, rr, mod, n0, k);
    for (i = 2; i < 16; i++)
        amm52_x8(table[i], table[i - 1], table[1], mod, n0, k);

    memcpy(acc, table[0], k * sizeof(__m512i));
    for (i = 0; i < explen; i++) {
        for (shift = 4; shift >= 0; shift -= 4) {
            uint64_t w = (exp[i] >> shift) & 15;

            for (j = 0; j < 4; j++)
                amm52_x8(acc, acc, acc, mod, n0, k);
            for (j = 0; j < k; j++)
                sel[j] = zero;
            for (e = 0; e < 16; e++) {
                /* all ones iff e == w: the same in every lane */
                const __m512i mask = _mm512_set1_epi64(
                    (long long)((uint64_t)0 - (((e ^ w) - 1) >> 63)));
                for (j = 0; j < k; j++)
                    sel[j] = _mm512_or_si512(sel[j],
                                             _mm512_and_si512(table[e][j], mask));
            }
            amm52_x8(acc, acc, sel, mod, n0, k);
        }
    }
    /* Out of Montgomery form: below p + 1, so p itself is the one value
     * left to subtract — computed in every lane, kept where no borrow. */
    amm52_x8(acc, acc, one, mod, n0, k);
    for (j = 0; j < k; j++) {
        __m512i d = _mm512_sub_epi64(_mm512_sub_epi64(acc[j], mod[j]), borrow);

        borrow = _mm512_srli_epi64(d, 63);
        sel[j] = _mm512_and_si512(d, _mm512_set1_epi64((long long)DIGIT_MASK));
    }
    keep = _mm512_cmpeq_epi64_mask(borrow, zero);
    for (j = 0; j < k; j++)
        _mm512_store_si512((void *)column[j],
                           _mm512_mask_blend_epi64(keep, acc[j], sel[j]));
    for (lane = 0; lane < count; lane++) {
        for (j = 0; j < k; j++)
            digits[j] = column[j][lane];
        digits_to_limbs(limbs, n, digits, k);
        store_be_limbs(out + 8 * n * lane, limbs, n);
    }
}
#endif /* HAVE_AMM52_BUILD */

/* 0 when this build on this CPU can run modexp `path`, -2 when the CPU
 * lacks its instructions, -3 when the build left it out, -1 for no path. */
static int modexp_path_status(int path)
{
    switch (path) {
    case MODEXP_PATH_SCALAR:
        return 0;
    case MODEXP_PATH_LANES:
#ifdef HAVE_AMM52_BUILD
        return CPU_RUNS_LANES(__builtin_cpu_supports("avx512f")
            && __builtin_cpu_supports("avx512ifma")) ? 0 : -2;
#else
        return -3;
#endif
    default:
        return -1;
    }
}

/* How many bases one pass raises, for moduli the lanes take: 8 with the
 * IFMA lanes, else 1. */
int repro_modexp_lanes(void)
{
    static int lanes;
    if (!lanes)
        lanes = modexp_path_status(MODEXP_PATH_LANES) ? 1 : MODEXP_LANES;
    return lanes;
}

/* Both entry points: path 0 picks per group of eight — the lanes for two
 * bases or more where they run, the scalar loop otherwise — and a
 * forced path runs every base on it. */
static int modexp_run(int path, const uint8_t *mod, const uint8_t *rr,
                      const uint8_t *rr52, size_t n, const uint8_t *bases,
                      size_t count, const uint8_t *exp, size_t explen,
                      uint8_t *out)
{
    uint64_t p[MODEXP_MAX_LIMBS], x[MODEXP_MAX_LIMBS], rrl[MODEXP_MAX_LIMBS];
    const size_t width = 8 * n;
    const int wide = amm52_digits(n) > AMM52_MAX_DIGITS;
    uint64_t n0;
    size_t i, j, group;

    if (mod == NULL || rr == NULL || rr52 == NULL || exp == NULL
        || (count && (bases == NULL || out == NULL))
        || n < 1 || n > MODEXP_MAX_LIMBS
        || count > (size_t)-1 / MODEXP_MAX_LIMBS / 8)
        return -1;
    load_be_limbs(p, mod, n);
    if (!(p[0] & 1) || (path == MODEXP_PATH_LANES && wide))
        return -1;
    /* Every base is checked before the first one is raised. */
    for (i = 0; i < count; i++) {
        load_be_limbs(x, bases + width * i, n);
        if (!sub_limbs(NULL, x, p, n))
            return -1;
    }
    n0 = mont_n0(p[0]);
    load_be_limbs(rrl, rr, n);
    for (i = 0; i < count; i += group) {
        group = count - i < MODEXP_LANES ? count - i : MODEXP_LANES;
#ifdef HAVE_AMM52_BUILD
        if (path == MODEXP_PATH_LANES || (!path && group > 1 && !wide
                                          && repro_modexp_lanes() == MODEXP_LANES)) {
            modexp_lanes(p, rr52, n, bases + width * i, group, exp, explen,
                         out + width * i);
            continue;
        }
#endif
        for (j = i; j < i + group; j++) {
            load_be_limbs(x, bases + width * j, n);
            modexp_scalar(x, p, rrl, n0, n, exp, explen);
            store_be_limbs(out + width * j, x, n);
        }
    }
    return 0;
}

/* out[i] = bases[i]**exp mod p for i in [0, count), each 8*n bytes.
 * Returns 0, -1 on bad arguments (null, n outside [1, 64], even modulus,
 * any base >= modulus — then out is untouched). */
int repro_modexp(const uint8_t *mod, const uint8_t *rr, const uint8_t *rr52,
                 size_t n, const uint8_t *bases, size_t count,
                 const uint8_t *exp, size_t explen, uint8_t *out)
{
    return modexp_run(0, mod, rr, rr52, n, bases, count, exp, explen, out);
}

/* The same powers with every base on one path — 1 the scalar loop, 2 the
 * eight IFMA lanes (a lone base too; moduli up to 2048 bits, wider is
 * -1) — so a test can run the path this host would not pick.  Not
 * reachable from configuration.  Returns 0, -1 on bad arguments, -2 when
 * the CPU lacks the path, -3 when the build does. */
int repro_modexp_path(int path, const uint8_t *mod, const uint8_t *rr,
                      const uint8_t *rr52, size_t n, const uint8_t *bases,
                      size_t count, const uint8_t *exp, size_t explen,
                      uint8_t *out)
{
    int status = modexp_path_status(path);

    if (status)
        return status;
    return modexp_run(path, mod, rr, rr52, n, bases, count, exp, explen, out);
}
#else
int repro_modexp(const uint8_t *mod, const uint8_t *rr, const uint8_t *rr52,
                 size_t n, const uint8_t *bases, size_t count,
                 const uint8_t *exp, size_t explen, uint8_t *out)
{
    (void)mod; (void)rr; (void)rr52; (void)n; (void)bases; (void)count;
    (void)exp; (void)explen; (void)out;
    return -3;
}

int repro_modexp_path(int path, const uint8_t *mod, const uint8_t *rr,
                      const uint8_t *rr52, size_t n, const uint8_t *bases,
                      size_t count, const uint8_t *exp, size_t explen,
                      uint8_t *out)
{
    (void)path;
    return repro_modexp(mod, rr, rr52, n, bases, count, exp, explen, out);
}

int repro_modexp_lanes(void)
{
    return 1;
}
#endif
