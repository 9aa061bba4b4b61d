/* Stream plane: the counter-mode SHA-256 stream.
 *
 * Computes out[i] = SHA256(seed || be64(ctr0 + i)) for i in [0, nblocks):
 * the exact block stream of repro.crypto.prg.PRGReference, specialized to
 * the protocol's short seeds.  Each message is seedlen + 8 <= 55 bytes,
 * so it fits one 64-byte padded block and every digest costs exactly one
 * compression — the padded block is built once and only the 8 counter
 * bytes are patched per iteration.
 *
 * Portable scalar compression everywhere, SHA-NI via function-target
 * dispatch where the CPU has it, and sixteen counters side by side where
 * it has AVX-512.  The mask fold and the noise loop draw their stream
 * from here (ctr_stream, kernels.h).  When the object cannot be built,
 * the pure-Python hashlib loop in repro.crypto.prg serves the same bytes.
 */

#include "kernels.h"

static const uint32_t K[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u,
    0x3956c25bu, 0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u,
    0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
    0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u,
    0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
    0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u,
    0xc6e00bf3u, 0xd5a79147u, 0x06ca6351u, 0x14292967u,
    0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
    0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u,
    0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
    0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u,
    0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu, 0x682e6ff3u,
    0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

static const uint32_t H0[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

#define ROR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void compress_scalar(uint32_t state[8], const uint8_t block[64])
{
    uint32_t w[64];
    uint32_t a, b, c, d, e, f, g, h;
    int i;

    for (i = 0; i < 16; i++) {
        w[i] = ((uint32_t)block[4 * i] << 24) |
               ((uint32_t)block[4 * i + 1] << 16) |
               ((uint32_t)block[4 * i + 2] << 8) |
               ((uint32_t)block[4 * i + 3]);
    }
    for (i = 16; i < 64; i++) {
        uint32_t s0 = ROR(w[i - 15], 7) ^ ROR(w[i - 15], 18) ^ (w[i - 15] >> 3);
        uint32_t s1 = ROR(w[i - 2], 17) ^ ROR(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    a = state[0]; b = state[1]; c = state[2]; d = state[3];
    e = state[4]; f = state[5]; g = state[6]; h = state[7];

    for (i = 0; i < 64; i++) {
        uint32_t S1 = ROR(e, 6) ^ ROR(e, 11) ^ ROR(e, 25);
        uint32_t ch = (e & f) ^ (~e & g);
        uint32_t t1 = h + S1 + ch + K[i] + w[i];
        uint32_t S0 = ROR(a, 2) ^ ROR(a, 13) ^ ROR(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = S0 + maj;
        h = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }

    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

#ifdef HAVE_SHANI_BUILD
/* The standard Intel SHA-NI single-block flow: state packed as ABEF /
 * CDGH, four rounds per sha256rnds2 pair, message schedule kept rolling
 * with sha256msg1/msg2. */
__attribute__((target("sha,sse4.1,ssse3")))
static void compress_shani(uint32_t state[8], const uint8_t block[64])
{
    __m128i state0, state1, msg, tmp;
    __m128i msg0, msg1, msg2, msg3;
    __m128i abef_save, cdgh_save;
    const __m128i mask = _mm_set_epi64x(
        0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

    tmp = _mm_loadu_si128((const __m128i *)&state[0]);
    state1 = _mm_loadu_si128((const __m128i *)&state[4]);

    tmp = _mm_shuffle_epi32(tmp, 0xB1);          /* CDAB */
    state1 = _mm_shuffle_epi32(state1, 0x1B);    /* EFGH */
    state0 = _mm_alignr_epi8(tmp, state1, 8);    /* ABEF */
    state1 = _mm_blend_epi16(state1, tmp, 0xF0); /* CDGH */

    abef_save = state0;
    cdgh_save = state1;

    /* Rounds 0-3 */
    msg = _mm_loadu_si128((const __m128i *)(block + 0));
    msg0 = _mm_shuffle_epi8(msg, mask);
    msg = _mm_add_epi32(msg0,
        _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    /* Rounds 4-7 */
    msg1 = _mm_loadu_si128((const __m128i *)(block + 16));
    msg1 = _mm_shuffle_epi8(msg1, mask);
    msg = _mm_add_epi32(msg1,
        _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    /* Rounds 8-11 */
    msg2 = _mm_loadu_si128((const __m128i *)(block + 32));
    msg2 = _mm_shuffle_epi8(msg2, mask);
    msg = _mm_add_epi32(msg2,
        _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    /* Rounds 12-15 */
    msg3 = _mm_loadu_si128((const __m128i *)(block + 48));
    msg3 = _mm_shuffle_epi8(msg3, mask);
    msg = _mm_add_epi32(msg3,
        _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    /* Rounds 16-19 */
    msg = _mm_add_epi32(msg0,
        _mm_set_epi64x(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    /* Rounds 20-23 */
    msg = _mm_add_epi32(msg1,
        _mm_set_epi64x(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    /* Rounds 24-27 */
    msg = _mm_add_epi32(msg2,
        _mm_set_epi64x(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    /* Rounds 28-31 */
    msg = _mm_add_epi32(msg3,
        _mm_set_epi64x(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    /* Rounds 32-35 */
    msg = _mm_add_epi32(msg0,
        _mm_set_epi64x(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    /* Rounds 36-39 */
    msg = _mm_add_epi32(msg1,
        _mm_set_epi64x(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    /* Rounds 40-43 */
    msg = _mm_add_epi32(msg2,
        _mm_set_epi64x(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    /* Rounds 44-47 */
    msg = _mm_add_epi32(msg3,
        _mm_set_epi64x(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    /* Rounds 48-51 */
    msg = _mm_add_epi32(msg0,
        _mm_set_epi64x(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    /* Rounds 52-55 */
    msg = _mm_add_epi32(msg1,
        _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    /* Rounds 56-59 */
    msg = _mm_add_epi32(msg2,
        _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    /* Rounds 60-63 */
    msg = _mm_add_epi32(msg3,
        _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);

    tmp = _mm_shuffle_epi32(state0, 0x1B);       /* FEBA */
    state1 = _mm_shuffle_epi32(state1, 0xB1);    /* DCHG */
    state0 = _mm_blend_epi16(tmp, state1, 0xF0); /* DCBA */
    state1 = _mm_alignr_epi8(state1, tmp, 8);    /* HGFE */

    _mm_storeu_si128((__m128i *)&state[0], state0);
    _mm_storeu_si128((__m128i *)&state[4], state1);
}
#endif /* HAVE_SHANI_BUILD */

/* ---------------------------------------------------------------------
 * Sixteen counters of one seed at once (AVX-512 F + BW + VL).
 *
 * Counter mode makes a seed's blocks independent single-block messages,
 * so sixteen of them run side by side: one zmm register per state word
 * and per schedule word, lane j working on counter ctr + j.  A message
 * word that holds only seed or padding bytes is the same in every lane
 * and is broadcast; the eight counter bytes sit at byte `seedlen`, so
 * they fill word seedlen/4 + 1 and — shifted by the seed's odd bytes —
 * parts of the words on either side of it, and those (at most three)
 * rows are built per lane from 64-bit sums ctr + j, which carry past
 * 2^32 and wrap at 2^64 exactly as the loop below does.  The rounds are
 * the textbook ones, a rotate being one vprord and each of Ch, Maj and
 * the three-way xors one vpternlogd.  The eight digest registers are
 * byte-swapped and transposed (32-bit, then 64-bit unpacks inside each
 * 128-bit lane, one two-source permute across them), which leaves
 * blocks j and j + 4 in one register: sixteen 32-byte stores in the
 * layout the single-block paths write.
 *
 * -DREPRO_NO_X16 leaves the section out, and with it the bit-pack and
 * modexp lanes that sit under the same HAVE_X16_BUILD gate (kernels.h).
 * There is no eight-lane AVX2 variant: without vprord and vpternlogd it
 * would not beat SHA-NI, and no host here can measure one.
 * ------------------------------------------------------------------ */
#ifdef HAVE_X16_BUILD

#define X16_ADD(x, y) _mm512_add_epi32(x, y)
#define X16_XOR3(x, y, z) _mm512_ternarylogic_epi32(x, y, z, 0x96)
#define X16_BIG_S0(x) X16_XOR3(_mm512_ror_epi32(x, 2), \
    _mm512_ror_epi32(x, 13), _mm512_ror_epi32(x, 22))
#define X16_BIG_S1(x) X16_XOR3(_mm512_ror_epi32(x, 6), \
    _mm512_ror_epi32(x, 11), _mm512_ror_epi32(x, 25))
#define X16_SMALL_S0(x) X16_XOR3(_mm512_ror_epi32(x, 7), \
    _mm512_ror_epi32(x, 18), _mm512_srli_epi32(x, 3))
#define X16_SMALL_S1(x) X16_XOR3(_mm512_ror_epi32(x, 17), \
    _mm512_ror_epi32(x, 19), _mm512_srli_epi32(x, 10))

/* Round i + j on schedule word w[j]; Ch is 0xCA, Maj 0xE8. */
#define X16_ROUND(a, b, c, d, e, f, g, h, j) do { \
    __m512i t1 = X16_ADD( \
        X16_ADD(h, X16_ADD(w[j], _mm512_set1_epi32((int)K[i + j]))), \
        X16_ADD(X16_BIG_S1(e), _mm512_ternarylogic_epi32(e, f, g, 0xCA))); \
    __m512i t2 = X16_ADD(X16_BIG_S0(a), \
        _mm512_ternarylogic_epi32(a, b, c, 0xE8)); \
    d = X16_ADD(d, t1); \
    h = X16_ADD(t1, t2); \
} while (0)

/* w[j] becomes schedule word i + j, in place over word i + j - 16. */
#define X16_SCHEDULE(j) \
    w[j] = X16_ADD(X16_ADD(w[j], X16_SMALL_S0(w[(j + 1) & 15])), \
        X16_ADD(w[(j + 9) & 15], X16_SMALL_S1(w[(j + 14) & 15])))

#define X16_EIGHT_ROUNDS(j, STEP) \
    STEP(j); X16_ROUND(a, b, c, d, e, f, g, h, j); \
    STEP(j + 1); X16_ROUND(h, a, b, c, d, e, f, g, j + 1); \
    STEP(j + 2); X16_ROUND(g, h, a, b, c, d, e, f, j + 2); \
    STEP(j + 3); X16_ROUND(f, g, h, a, b, c, d, e, j + 3); \
    STEP(j + 4); X16_ROUND(e, f, g, h, a, b, c, d, j + 4); \
    STEP(j + 5); X16_ROUND(d, e, f, g, h, a, b, c, j + 5); \
    STEP(j + 6); X16_ROUND(c, d, e, f, g, h, a, b, j + 6); \
    STEP(j + 7); X16_ROUND(b, c, d, e, f, g, h, a, j + 7)
#define X16_NO_STEP(j) (void)0

/* The low halves of eight 64-bit lanes of lo, then of hi. */
X16_TARGET
static inline __m512i x16_low_words(__m512i lo, __m512i hi)
{
    LANE_ENTRY();
    return _mm512_inserti64x4(
        _mm512_castsi256_si512(_mm512_cvtepi64_epi32(lo)),
        _mm512_cvtepi64_epi32(hi), 1);
}

/* out[32j .. 32j+31] = SHA256 of the block whose big-endian words are
 * `words` with be64(ctr + j) written at byte seedlen, j in [0, 16);
 * `words` has zeros where the counter goes. */
X16_TARGET
static void compress_x16(const uint32_t words[16], size_t seedlen,
                         uint64_t ctr, uint8_t *out)
{
    const __m512i byteswap = _mm512_broadcast_i32x4(_mm_set_epi64x(
        0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL));
    const __m512i blocks_0_4 = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i blocks_8_12 = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    const __m512i ctr_lo = _mm512_add_epi64(_mm512_set1_epi64((long long)ctr),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    const __m512i ctr_hi = _mm512_add_epi64(ctr_lo, _mm512_set1_epi64(8));
    const __m128i odd = _mm_cvtsi32_si128(8 * (int)(seedlen % 4));
    const __m128i rest = _mm_cvtsi32_si128(32 - 8 * (int)(seedlen % 4));
    const size_t at = seedlen / 4;
    __m512i rows[16], w[16], a, b, c, d, e, f, g, h;
    int i, j;

    LANE_ENTRY();
    /* The 96 bits of words at .. at + 2 are odd seed bytes, the counter,
     * then 0x80 and padding: the counter shifted right by the odd bytes
     * (a shift by 64 or more leaves zero, and the narrowing drops what
     * belongs to the word before). */
    for (j = 0; j < 16; j++) /* rows: indexed at run time; w stays in registers */
        rows[j] = _mm512_set1_epi32((int)words[j]);
    rows[at] = _mm512_or_si512(rows[at], x16_low_words(
        _mm512_srl_epi64(_mm512_srli_epi64(ctr_lo, 32), odd),
        _mm512_srl_epi64(_mm512_srli_epi64(ctr_hi, 32), odd)));
    rows[at + 1] = x16_low_words(
        _mm512_srl_epi64(ctr_lo, odd), _mm512_srl_epi64(ctr_hi, odd));
    rows[at + 2] = _mm512_or_si512(rows[at + 2], x16_low_words(
        _mm512_sll_epi64(ctr_lo, rest), _mm512_sll_epi64(ctr_hi, rest)));
    for (j = 0; j < 16; j++)
        w[j] = rows[j];

    a = _mm512_set1_epi32((int)H0[0]); b = _mm512_set1_epi32((int)H0[1]);
    c = _mm512_set1_epi32((int)H0[2]); d = _mm512_set1_epi32((int)H0[3]);
    e = _mm512_set1_epi32((int)H0[4]); f = _mm512_set1_epi32((int)H0[5]);
    g = _mm512_set1_epi32((int)H0[6]); h = _mm512_set1_epi32((int)H0[7]);

    i = 0;
    X16_EIGHT_ROUNDS(0, X16_NO_STEP);
    X16_EIGHT_ROUNDS(8, X16_NO_STEP);
    for (i = 16; i < 64; i += 16) {
        X16_EIGHT_ROUNDS(0, X16_SCHEDULE);
        X16_EIGHT_ROUNDS(8, X16_SCHEDULE);
    }

    w[0] = X16_ADD(a, _mm512_set1_epi32((int)H0[0]));
    w[1] = X16_ADD(b, _mm512_set1_epi32((int)H0[1]));
    w[2] = X16_ADD(c, _mm512_set1_epi32((int)H0[2]));
    w[3] = X16_ADD(d, _mm512_set1_epi32((int)H0[3]));
    w[4] = X16_ADD(e, _mm512_set1_epi32((int)H0[4]));
    w[5] = X16_ADD(f, _mm512_set1_epi32((int)H0[5]));
    w[6] = X16_ADD(g, _mm512_set1_epi32((int)H0[6]));
    w[7] = X16_ADD(h, _mm512_set1_epi32((int)H0[7]));
    for (j = 0; j < 8; j++)
        w[j] = _mm512_shuffle_epi8(w[j], byteswap);
    /* Digest words 0-3 (then 4-7) of block 4q + m, in 128-bit lane q of
     * w[8 + m] (w[12 + m]). */
    for (j = 0; j < 8; j += 4) {
        __m512i ab_lo = _mm512_unpacklo_epi32(w[j], w[j + 1]);
        __m512i ab_hi = _mm512_unpackhi_epi32(w[j], w[j + 1]);
        __m512i cd_lo = _mm512_unpacklo_epi32(w[j + 2], w[j + 3]);
        __m512i cd_hi = _mm512_unpackhi_epi32(w[j + 2], w[j + 3]);

        w[8 + j] = _mm512_unpacklo_epi64(ab_lo, cd_lo);
        w[9 + j] = _mm512_unpackhi_epi64(ab_lo, cd_lo);
        w[10 + j] = _mm512_unpacklo_epi64(ab_hi, cd_hi);
        w[11 + j] = _mm512_unpackhi_epi64(ab_hi, cd_hi);
    }
    for (j = 0; j < 4; j++) {
        __m512i low = _mm512_permutex2var_epi64(w[8 + j], blocks_0_4, w[12 + j]);
        __m512i high = _mm512_permutex2var_epi64(w[8 + j], blocks_8_12, w[12 + j]);

        _mm256_storeu_si256((__m256i *)(out + 32 * j),
                            _mm512_castsi512_si256(low));
        _mm256_storeu_si256((__m256i *)(out + 32 * (j + 4)),
                            _mm512_extracti64x4_epi64(low, 1));
        _mm256_storeu_si256((__m256i *)(out + 32 * (j + 8)),
                            _mm512_castsi512_si256(high));
        _mm256_storeu_si256((__m256i *)(out + 32 * (j + 12)),
                            _mm512_extracti64x4_epi64(high, 1));
    }
}
#endif /* HAVE_X16_BUILD */

#define PATH_SCALAR 1
#define PATH_SHANI 2
#define PATH_X16 3

/* 0 when this build on this CPU can run `path`, -2 when the CPU lacks
 * its instructions, -3 when the build left it out, -1 for no path. */
static int path_status(int path)
{
    switch (path) {
    case PATH_SCALAR:
        return 0;
    case PATH_SHANI:
#ifdef HAVE_SHANI_BUILD
        return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")
            && __builtin_cpu_supports("ssse3") ? 0 : -2;
#else
        return -3;
#endif
    case PATH_X16:
#ifdef HAVE_X16_BUILD
        return CPU_RUNS_LANES(__builtin_cpu_supports("avx512f")
            && __builtin_cpu_supports("avx512bw")
            && __builtin_cpu_supports("avx512vl")) ? 0 : -2;
#else
        return -3;
#endif
    default:
        return -1;
    }
}

/* Which single-block compression serves short streams and tails:
 * 1 = portable C, 2 = SHA-NI. */
int repro_sha256_ctr_backend(void)
{
    static int backend;
    if (!backend)
        backend = path_status(PATH_SHANI) ? PATH_SCALAR : PATH_SHANI;
    return backend;
}

int ctr_stream_lanes(void)
{
    static int lanes;
    if (!lanes)
        lanes = path_status(PATH_X16) ? 1 : X16_LANES;
    return lanes;
}

/* How many counters one compression call covers on runs long enough:
 * 16 with the AVX-512 lanes, else 1. */
int repro_sha256_ctr_lanes(void)
{
    return ctr_stream_lanes();
}

/* The padded block of seed || be64(0): the one message every counter of
 * this seed patches eight bytes of. */
static void ctr_block(uint8_t block[64], const uint8_t *seed, size_t seedlen)
{
    uint64_t bits = (uint64_t)(seedlen + 8) * 8;
    int j;

    memset(block, 0, 64);
    memcpy(block, seed, seedlen);
    block[seedlen + 8] = 0x80;
    for (j = 0; j < 8; j++)
        block[63 - j] = (uint8_t)(bits >> (8 * j));
}

/* nblocks digests from ctr0, one block at a time on `path` (1 or 2). */
static void ctr_single(int path, uint8_t block[64], size_t seedlen,
                       uint64_t ctr0, uint64_t nblocks, uint8_t *out)
{
    uint64_t i;
    int j;

    for (i = 0; i < nblocks; i++) {
        uint64_t c = ctr0 + i;
        uint32_t st[8];
        uint8_t *o = out + 32 * i;

        for (j = 0; j < 8; j++)
            block[seedlen + 7 - j] = (uint8_t)(c >> (8 * j));
        memcpy(st, H0, sizeof(st));
#ifdef HAVE_SHANI_BUILD
        if (path == PATH_SHANI)
            compress_shani(st, block);
        else
#endif
            compress_scalar(st, block);
        for (j = 0; j < 8; j++) {
            uint32_t v = st[j];
            o[4 * j] = (uint8_t)(v >> 24);
            o[4 * j + 1] = (uint8_t)(v >> 16);
            o[4 * j + 2] = (uint8_t)(v >> 8);
            o[4 * j + 3] = (uint8_t)v;
        }
    }
}

#ifdef HAVE_X16_BUILD
/* Every whole run of sixteen of the nblocks digests from ctr0 — and,
 * with `ragged`, the rest too, by way of a scratch run cut to length.
 * Returns how many blocks it wrote. */
static uint64_t ctr_lanes(const uint8_t block[64], size_t seedlen,
                          uint64_t ctr0, uint64_t nblocks, uint8_t *out,
                          int ragged)
{
    uint32_t words[16];
    uint64_t i;
    int j;

    if (nblocks < X16_LANES && !ragged)
        return 0;
    for (j = 0; j < 16; j++)
        words[j] = ((uint32_t)block[4 * j] << 24)
            | ((uint32_t)block[4 * j + 1] << 16)
            | ((uint32_t)block[4 * j + 2] << 8) | block[4 * j + 3];
    for (i = 0; nblocks - i >= X16_LANES; i += X16_LANES)
        compress_x16(words, seedlen, ctr0 + i, out + 32 * i);
    if (ragged && i < nblocks) {
        uint8_t scratch[32 * X16_LANES];

        compress_x16(words, seedlen, ctr0 + i, scratch);
        memcpy(out + 32 * i, scratch, 32 * (size_t)(nblocks - i));
        i = nblocks;
    }
    return i;
}
#endif

int ctr_stream(const uint8_t *seed, size_t seedlen,
               uint64_t ctr0, uint64_t nblocks, uint8_t *out)
{
    uint8_t block[64];
    uint64_t done = 0;

    if (seed == NULL || out == NULL || seedlen > 47)
        return -1;
    ctr_block(block, seed, seedlen);
#ifdef HAVE_X16_BUILD
    if (ctr_stream_lanes() == X16_LANES)
        done = ctr_lanes(block, seedlen, ctr0, nblocks, out, 0);
#endif
    ctr_single(repro_sha256_ctr_backend(), block, seedlen, ctr0 + done,
               nblocks - done, out + 32 * done);
    return 0;
}

/* out[i*32 .. i*32+31] = SHA256(seed || be64(ctr0 + i)).
 * Requires seedlen <= 47 (message fits one padded block).
 * Returns 0 on success, -1 on bad arguments. */
int repro_sha256_ctr(const uint8_t *seed, size_t seedlen,
                     uint64_t ctr0, uint64_t nblocks, uint8_t *out)
{
    return ctr_stream(seed, seedlen, ctr0, nblocks, out);
}

/* The same stream with every block on one compression path — 1 portable
 * C, 2 SHA-NI, 3 the sixteen lanes (ragged ends included) — so a test
 * can run the paths this host would never pick.  Not reachable from
 * configuration.  Returns 0, -1 on bad arguments, -2 when the CPU lacks
 * the path, -3 when the build does. */
int repro_sha256_ctr_path(int path, const uint8_t *seed, size_t seedlen,
                          uint64_t ctr0, uint64_t nblocks, uint8_t *out)
{
    uint8_t block[64];
    int status = path_status(path);

    if (status)
        return status;
    if (seed == NULL || out == NULL || seedlen > 47)
        return -1;
    ctr_block(block, seed, seedlen);
#ifdef HAVE_X16_BUILD
    if (path == PATH_X16)
        ctr_lanes(block, seedlen, ctr0, nblocks, out, 1);
    else
#endif
        ctr_single(path, block, seedlen, ctr0, nblocks, out);
    return 0;
}
