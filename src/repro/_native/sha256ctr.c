/* Counter-mode SHA-256 stream kernel.
 *
 * Computes out[i] = SHA256(seed || be64(ctr0 + i)) for i in [0, nblocks):
 * the exact block stream of repro.crypto.prg.PRGReference, specialized to
 * the protocol's short seeds.  Each message is seedlen + 8 <= 55 bytes,
 * so it fits one 64-byte padded block and every digest costs exactly one
 * compression — the padded block is built once and only the 8 counter
 * bytes are patched per iteration.
 *
 * Self-contained on purpose: no libcrypto (nothing to link against),
 * portable scalar compression everywhere, SHA-NI via function-target
 * dispatch where the CPU has it.  Built lazily by repro.native with the
 * system C compiler; when that fails, the pure-Python hashlib loop in
 * repro.crypto.prg serves the same bytes (parity-pinned by test).
 *
 * The same object carries the masked-vector bit packer, the Skellam
 * noise loop, the mask fold, the modular exponentiation kernel and the
 * DSkellam transform (butterfly and rounder) further down: one build,
 * one probe.  Its AVX-512 loops — the sixteen stream lanes, the eight
 * bit-pack lanes and the eight IFMA modexp lanes — share one gate
 * (-DREPRO_NO_X16 leaves them all out) and one runtime check.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

#if defined(__x86_64__) && defined(__GNUC__)
#define HAVE_SHANI_BUILD 1
#include <immintrin.h>

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
#endif /* __x86_64__ */

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
 * modexp lanes further down that sit under the same HAVE_X16_BUILD
 * gate: repro.native retries the build with it when the compiler
 * refuses the section, so losing the lanes never costs the object.
 * There is no eight-lane AVX2 variant: without vprord and vpternlogd it
 * would not beat SHA-NI, and no host here can measure one.
 * ------------------------------------------------------------------ */
#if defined(HAVE_SHANI_BUILD) && !defined(REPRO_NO_X16)
#define HAVE_X16_BUILD 1
#define X16_TARGET __attribute__((target("avx512f,avx512bw,avx512vl")))

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
#define X16_LANES 16

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
        return __builtin_cpu_supports("avx512f")
            && __builtin_cpu_supports("avx512bw")
            && __builtin_cpu_supports("avx512vl") ? 0 : -2;
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

/* How many counters one compression call covers on runs long enough:
 * 16 with the AVX-512 lanes, else 1. */
int repro_sha256_ctr_lanes(void)
{
    static int lanes;
    if (!lanes)
        lanes = path_status(PATH_X16) ? 1 : X16_LANES;
    return lanes;
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

/* out[i*32 .. i*32+31] = SHA256(seed || be64(ctr0 + i)).
 * Requires seedlen <= 47 (message fits one padded block).
 * Returns 0 on success, -1 on bad arguments. */
int repro_sha256_ctr(const uint8_t *seed, size_t seedlen,
                     uint64_t ctr0, uint64_t nblocks, uint8_t *out)
{
    uint8_t block[64];
    uint64_t done = 0;

    if (seed == NULL || out == NULL || seedlen > 47)
        return -1;
    ctr_block(block, seed, seedlen);
#ifdef HAVE_X16_BUILD
    if (repro_sha256_ctr_lanes() == X16_LANES)
        done = ctr_lanes(block, seedlen, ctr0, nblocks, out, 0);
#endif
    ctr_single(repro_sha256_ctr_backend(), block, seedlen, ctr0 + done,
               nblocks - done, out + 32 * done);
    return 0;
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

/* ---------------------------------------------------------------------
 * Ring-width bit packing for masked vectors (repro.wire.bitpack).
 *
 * The wire carries element i of a vector in bits [i*bits, (i+1)*bits)
 * of a little-endian bit stream: bit k of the stream is bit (k & 7) of
 * byte (k >> 3).  The scalar loops move the stream through a 64-bit
 * window, so they touch memory one word at a time; where the CPU has
 * the stream lanes, the reducing pack and the unpack-add (below, with
 * the mask fold) take whole groups of eight elements a zmm register at
 * a time.  repro.wire.bitpack holds the bit-identical numpy fallback.
 * ------------------------------------------------------------------ */

/* Fixed eight-byte forms: one move each (the store loop folds into one;
 * the load says so, as GCC does not fold it inside the mask loop). */
static inline void store_le64(uint8_t *dst, uint64_t w)
{
    int j;
    for (j = 0; j < 8; j++)
        dst[j] = (uint8_t)(w >> (8 * j));
}

static inline uint64_t load_le64(const uint8_t *src)
{
#if defined(__GNUC__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    uint64_t w;
    memcpy(&w, src, sizeof(w));
    return w;
#else
    uint64_t w = 0;
    int j;
    for (j = 0; j < 8; j++)
        w |= (uint64_t)src[j] << (8 * j);
    return w;
#endif
}

#ifdef HAVE_X16_BUILD
/* The same loops eight lanes wide (AVX-512 F + BW: the stream lanes'
 * gate, -DREPRO_NO_X16, and their runtime check).  A group of eight
 * elements is exactly `bits` bytes, and element k of it is bits
 * [k*bits, k*bits + bits) of a 512-bit register loaded at the group's
 * first byte: of qword k*bits/64, and of the next one where it crosses
 * (8*bits <= 496, so there always is a next one).  Every index and
 * shift below is a function of `bits` alone, built once per call. */

/* Each lane's low and high qword and the shifts that line its element
 * up: right by r = k*bits % 64, left by 64 - r (64 shifts to zero). */
struct lane_shape {
    uint64_t lo[8], hi[8], right[8], left[8];
};

static void lane_shape(struct lane_shape *shape, unsigned bits)
{
    unsigned k;

    for (k = 0; k < 8; k++) {
        shape->lo[k] = k * bits / 64;
        shape->hi[k] = shape->lo[k] + 1;
        shape->right[k] = k * bits % 64;
        shape->left[k] = 64 - shape->right[k];
    }
}

/* out[i] += (+/-) element i of stream, for the first `groups` groups of
 * eight: one unaligned 64-byte load a group, two vpermq, vpsrlvq /
 * vpsllvq / vporq, the ring mask, one add or subtract.  Each group's
 * load reads 64 bytes from its first: the caller keeps them readable. */
X16_TARGET
static void lanes_unpack_add(const uint8_t *stream, unsigned bits,
                             int negate, int64_t *out, size_t groups)
{
    struct lane_shape shape;
    __m512i lo, hi, right, left, mask;
    size_t g;

    lane_shape(&shape, bits);
    lo = _mm512_loadu_si512(shape.lo);
    hi = _mm512_loadu_si512(shape.hi);
    right = _mm512_loadu_si512(shape.right);
    left = _mm512_loadu_si512(shape.left);
    mask = _mm512_set1_epi64((long long)(((uint64_t)1 << bits) - 1));
    for (g = 0; g < groups; g++, stream += bits, out += 8) {
        __m512i v = _mm512_loadu_si512(stream);
        __m512i e = _mm512_and_si512(mask, _mm512_or_si512(
            _mm512_srlv_epi64(_mm512_permutexvar_epi64(lo, v), right),
            _mm512_sllv_epi64(_mm512_permutexvar_epi64(hi, v), left)));
        __m512i acc = _mm512_loadu_si512(out);

        acc = negate ? _mm512_sub_epi64(acc, e) : _mm512_add_epi64(acc, e);
        _mm512_storeu_si512(out, acc);
    }
}

/* dst[g*bits .. g*bits + bits) = the packed low bits of src[8g .. 8g+8),
 * for the first `groups` groups: mask, vpsllvq by r and vpsrlvq by
 * 64 - r, then every output qword ORs the lanes that land in it, one
 * vpermt2q slot over both results at a time (at most eight slots: eight
 * elements, each in a qword at most once), and a masked store writes
 * exactly `bits` bytes. */
X16_TARGET
static void lanes_pack_low_bits(const int64_t *src, unsigned bits,
                                uint8_t *dst, size_t groups)
{
    struct lane_shape shape;
    uint64_t pick[8][8] = {{0}};
    __mmask8 live[8] = {0};
    __m512i slot[8], right, left, mask;
    const __mmask64 bytes = ((uint64_t)1 << bits) - 1;
    unsigned fill[8] = {0}, slots = 0, k;
    size_t g;

    lane_shape(&shape, bits);
    for (k = 0; k < 8; k++) {
        unsigned w = (unsigned)shape.lo[k];

        /* lane k of the left shift lands in qword w; the bits it lost,
         * lane 8 + k of the right shift, in qword w + 1 */
        pick[fill[w]][w] = k;
        live[fill[w]++] |= (__mmask8)(1u << w);
        if (shape.right[k] + bits > 64) {
            w++;
            pick[fill[w]][w] = 8 + k;
            live[fill[w]++] |= (__mmask8)(1u << w);
        }
    }
    for (k = 0; k < 8; k++) {
        slot[k] = _mm512_loadu_si512(pick[k]);
        if (fill[k] > slots)
            slots = fill[k];
    }
    right = _mm512_loadu_si512(shape.right);
    left = _mm512_loadu_si512(shape.left);
    mask = _mm512_set1_epi64((long long)(((uint64_t)1 << bits) - 1));
    for (g = 0; g < groups; g++, src += 8, dst += bits) {
        __m512i v = _mm512_and_si512(mask, _mm512_loadu_si512(src));
        __m512i low = _mm512_sllv_epi64(v, right);
        __m512i high = _mm512_srlv_epi64(v, left);
        __m512i o = _mm512_maskz_permutex2var_epi64(live[0], low, slot[0], high);
        unsigned s;

        for (s = 1; s < slots; s++)
            o = _mm512_or_si512(o, _mm512_maskz_permutex2var_epi64(
                live[s], low, slot[s], high));
        _mm512_mask_storeu_epi8(dst, bytes, o);
    }
}

/* Whether the bit-pack loops run eight lanes wide on this CPU. */
static int bitpack_lanes(void)
{
    return repro_sha256_ctr_lanes() == X16_LANES;
}
#endif /* HAVE_X16_BUILD */

/* The pack loop.  `reduce` (a constant at both call sites) keeps only
 * the low `bits` bits of every element -- its value mod 2**bits, for a
 * negative two's-complement sum too -- where the strict form reports an
 * element outside [0, 2**bits). */
static inline int pack_window(const int64_t *src, size_t n, unsigned bits,
                              uint8_t *dst, int reduce)
{
    const uint64_t mask = ((uint64_t)1 << bits) - 1;
    uint64_t acc = 0, seen = 0;
    unsigned fill = 0;
    size_t i;

    for (i = 0; i < n; i++) {
        uint64_t v = (uint64_t)src[i];
        unsigned total = fill + bits;

        if (reduce)
            v &= mask;
        else
            seen |= v;
        acc |= v << fill;
        if (total >= 64) {
            /* bits <= 62, so a full window implies fill >= 2. */
            store_le64(dst, acc);
            dst += 8;
            acc = v >> (64 - fill);
            total -= 64;
        }
        fill = total;
    }
    for (; fill > 0; fill = fill > 8 ? fill - 8 : 0) {
        *dst++ = (uint8_t)acc;
        acc >>= 8;
    }
    return (seen >> bits) ? -2 : 0;
}

/* Pack src[0..n) into dst[0 .. ceil(n*bits/8)); pad bits are zero.
 * Returns 0, -1 on bad arguments, -2 when an element is outside
 * [0, 2**bits) (dst contents are then unspecified). */
int repro_pack_bits(const int64_t *src, size_t n, unsigned bits, uint8_t *dst)
{
    if (src == NULL || dst == NULL || bits < 1 || bits > 62)
        return -1;
    return pack_window(src, n, bits, dst, 0);
}

/* Pack src[i] mod 2**bits: the deferred sum of a MaskAccumulator goes
 * from int64 to its wire form in this one pass, the reduction fused
 * into the pack.  Whole groups of eight go on the lanes where they run
 * (each ends on a byte), the ragged rest through the window.  Returns
 * 0, -1 on bad arguments. */
int repro_pack_low_bits(const int64_t *src, size_t n, unsigned bits,
                        uint8_t *dst)
{
    size_t groups = 0;

    if (src == NULL || dst == NULL || bits < 1 || bits > 62)
        return -1;
#ifdef HAVE_X16_BUILD
    if (bitpack_lanes()) {
        groups = n / 8;
        lanes_pack_low_bits(src, bits, dst, groups);
    }
#endif
    return pack_window(src + 8 * groups, n - 8 * groups, bits,
                       dst + groups * bits, 1);
}

/* Whether nbytes == ceil(n * bits / 8), without forming n * bits (a
 * count no buffer could hold is refused before it can wrap). */
static int packed_length_ok(size_t nbytes, size_t n, unsigned bits)
{
    if (n > (size_t)-1 / 64)
        return 0;
    return nbytes == (n / 8) * bits + ((n % 8) * bits + 7) / 8;
}

/* Unpack n elements from src[0..nbytes) into dst.  src is
 * network-supplied: nbytes must be exactly ceil(n*bits/8).  Returns 0,
 * -1 on bad arguments or a length mismatch, -2 when a pad bit is set. */
int repro_unpack_bits(const uint8_t *src, size_t nbytes, size_t n,
                      unsigned bits, int64_t *dst)
{
    uint64_t acc = 0, mask;
    unsigned fill = 0;
    size_t pos = 0, i;

    if (src == NULL || dst == NULL || bits < 1 || bits > 62)
        return -1;
    if (!packed_length_ok(nbytes, n, bits))
        return -1;
    mask = ((uint64_t)1 << bits) - 1;
    for (i = 0; i < n; i++) {
        if (fill >= bits) {
            dst[i] = (int64_t)(acc & mask);
            acc >>= bits;
            fill -= bits;
        } else {
            size_t take = nbytes - pos < 8 ? nbytes - pos : 8;
            unsigned need = bits - fill;
            uint64_t w = 0;
            size_t j;

            if (take == 8)
                w = load_le64(src + pos);
            else
                for (j = 0; j < take; j++)
                    w |= (uint64_t)src[pos + j] << (8 * j);
            if (8 * take < need)
                return -1;
            pos += take;
            dst[i] = (int64_t)((acc | (w << fill)) & mask);
            acc = w >> need;
            fill = (unsigned)(8 * take) - need;
        }
    }
    if (pos != nbytes)
        return -1;
    return acc ? -2 : 0;
}

/* ---------------------------------------------------------------------
 * Skellam noise from the counter stream (repro.dp.sampler).
 *
 * The loop half of the sampler specified in repro/dp/sampler.py, which
 * builds the strip table and holds the bit-identical numpy twin.  Word t
 * of the counter stream above (big-endian u64) is one trial: its top 10
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
 * ------------------------------------------------------------------ */

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

static inline uint64_t load_be64(const uint8_t *src)
{
#if defined(__GNUC__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    uint64_t w;
    memcpy(&w, src, sizeof(w));
    return __builtin_bswap64(w);
#else
    uint64_t w = 0;
    int j;
    for (j = 0; j < 8; j++)
        w = (w << 8) | src[j];
    return w;
#endif
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
        if (repro_sha256_ctr(seed, seedlen, ctr, SKELLAM_BLOCKS, stream))
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

/* ---------------------------------------------------------------------
 * Mask folding: a seed's ring elements added straight into a vector
 * (repro.crypto.prg.expand_uniform with out=).
 *
 * Over the ring 2**bits, element i of a seed's mask is bits
 * [i*bits, (i+1)*bits) of its counter stream read as the little-endian
 * bit stream of the packer above: a mask is the wire unpacking of its
 * seed's stream, every stream bit used once.  The stream is produced a
 * slab of MASK_SLAB_BLOCKS blocks at a time on the stack (it never
 * leaves L1; whole runs of sixteen, so all of it but the vector's end
 * comes from the lanes) and unpack-added into the caller's accumulator
 * (eight lanes wide where the stream runs sixteen: every whole group of
 * eight, whose 64-byte load the slab's slack keeps inside the buffer);
 * no mask vector is stored anywhere.  Eight elements are exactly `bits`
 * bytes: a slab gives its whole groups of eight, and the few bytes past
 * the last one are carried to just before the next slab.
 * repro.crypto.prg holds the bit-identical numpy twin.
 * ------------------------------------------------------------------ */

#define MASK_SLAB_BLOCKS 64 /* stream per slab: 2 KiB */
#define MASK_SLAB_CARRY 64  /* room before it for < bits <= 62 carried bytes */
#define MASK_SLAB_SLACK 64  /* readable bytes past it for the last group's load */

/* The element `at` bits into a group, negated when flip is -1 (0 keeps
 * it).  The 64 bits read at its first byte hold all of it while
 * bits <= 57; a wider element (`wide`) takes its top bits from the
 * ninth byte. */
static inline int64_t mask_element(const uint8_t *group, unsigned at, int wide,
                                   uint64_t mask, int64_t flip)
{
    const uint8_t *src = group + (at >> 3);
    unsigned shift = at & 7;
    uint64_t v = load_le64(src) >> shift;

    if (wide)
        v |= ((uint64_t)src[8] << 1) << (63 - shift);
    return ((int64_t)(v & mask) ^ flip) - flip;
}

/* out[i] += (+/-) element i of stream, i in [0, n).  Eight elements are
 * exactly `bits` bytes, so every group of eight starts on a byte with
 * the same eight (byte, shift) pairs: the compiler unrolls the inner
 * loop around them, and no iteration depends on the one before it.
 * Inlined with `wide` a constant, so the loop carries no test for it. */
static inline void mask_unpack_add(const uint8_t *stream, unsigned bits,
                                   int wide, int64_t flip, int64_t *out,
                                   size_t n)
{
    const uint64_t mask = ((uint64_t)1 << bits) - 1;
    size_t group;
    unsigned k;

    for (group = 0; group < n / 8; group++, stream += bits, out += 8)
        for (k = 0; k < 8; k++)
            out[k] += mask_element(stream, k * bits, wide, mask, flip);
    for (k = 0; k < n % 8; k++)
        out[k] += mask_element(stream, k * bits, wide, mask, flip);
}

/* out[i] += (+/-) element i of stream, i in [0, n), flip as in
 * mask_element: the first `lanes` groups of eight on the eight lanes
 * (the caller has checked that they run here and that each group's
 * 64-byte load stays readable), the rest on the scalar loop.  lanes == 0
 * never enters the AVX-512 function: a CPU without it gets there too. */
static void unpack_add_groups(const uint8_t *stream, unsigned bits,
                              int64_t flip, int64_t *out, size_t n,
                              size_t lanes)
{
#ifdef HAVE_X16_BUILD
    if (lanes)
        lanes_unpack_add(stream, bits, flip != 0, out, lanes);
#endif
    stream += lanes * bits;
    out += 8 * lanes;
    n -= 8 * lanes;
    if (bits > 57)
        mask_unpack_add(stream, bits, 1, flip, out, n);
    else
        mask_unpack_add(stream, bits, 0, flip, out, n);
}

/* dst[i] += element i of the packed stream src[0..nbytes), i in [0, n):
 * a received masked input folded into the coordinator's sum without ever
 * being a vector.  src is network-supplied, so everything is checked
 * before dst is touched: nbytes == ceil(n*bits/8) and zero pad bits
 * (every element is then in [0, 2**bits) by construction; the caller
 * owns the int64 headroom).  The loops are the mask fold's.  The lanes
 * take the groups of eight whose 64-byte load ends inside src; the
 * scalar loop, which reads eight (nine when bits > 57) bytes at an
 * element's first byte, runs in place over the groups after them whose
 * widest read ends inside src, and over a zero-padded copy of the last
 * few bytes for the rest.  Returns 0, -1 on bad arguments or a length
 * mismatch, -2 when a pad bit is set. */
int repro_unpack_add(const uint8_t *src, size_t nbytes, size_t n,
                     unsigned bits, int64_t *dst)
{
    uint8_t tail[62 + 8 + MASK_SLAB_SLACK] = {0};
    size_t lanes = 0, whole, rest;
    unsigned pad;

    if (src == NULL || dst == NULL || bits < 1 || bits > 62)
        return -1;
    if (!packed_length_ok(nbytes, n, bits))
        return -1;
    pad = (unsigned)((8 - (n % 8) * bits % 8) % 8);
    if (pad && src[nbytes - 1] >> (8 - pad))
        return -2;
#ifdef HAVE_X16_BUILD
    /* Lanes group g loads bytes [g*bits, g*bits + 64). */
    if (bitpack_lanes() && nbytes >= 64) {
        lanes = (nbytes - 64) / bits + 1;
        if (lanes > n / 8)
            lanes = n / 8;
    }
#endif
    /* Scalar group g reads no further than byte g*bits + bits + 7. */
    whole = nbytes < 8 ? 0 : (nbytes - 8) / bits;
    if (whole > n / 8)
        whole = n / 8;
    if (whole < lanes)
        whole = lanes;
    rest = nbytes - whole * bits;
    if (rest > sizeof(tail) - MASK_SLAB_SLACK)
        return -1; /* unreachable: rest < bits + 8 */
    memcpy(tail, src + whole * bits, rest);
    unpack_add_groups(src, bits, 0, dst, 8 * whole, lanes);
    unpack_add_groups(tail, bits, 0, dst + 8 * whole, n - 8 * whole, 0);
    return 0;
}

/* Adds sign * (element i of seed's mask over 2**bits) into out[i] for
 * i in [0, n), raw: the caller owns the int64 headroom.  Returns 0, -1
 * on bad arguments (bits outside [1, 62], seedlen > 47 included, whatever
 * n is). */
int repro_mask_fold(const uint8_t *seed, size_t seedlen, unsigned bits,
                    int64_t sign, int64_t *out, size_t n)
{
    uint8_t buffer[MASK_SLAB_CARRY + 32 * MASK_SLAB_BLOCKS + MASK_SLAB_SLACK]
        __attribute__((aligned(64))) = {0};
    uint8_t *const slab = buffer + MASK_SLAB_CARRY;
    size_t done = 0, carried = 0;
    uint64_t ctr = 0, left;
    int lanes = 0;

    if (seed == NULL || seedlen > 47 || out == NULL || bits < 1 || bits > 62
        || (sign != 1 && sign != -1))
        return -1;
#ifdef HAVE_X16_BUILD
    lanes = bitpack_lanes();
#endif
    /* ceil(n * bits / 256) without forming n * bits */
    left = (uint64_t)(n / 256) * bits + ((n % 256) * bits + 255) / 256;
    while (left) {
        uint64_t nblocks = left < MASK_SLAB_BLOCKS ? left : MASK_SLAB_BLOCKS;
        const uint8_t *stream = slab - carried;
        size_t have = carried + 32 * (size_t)nblocks, count;

        if (repro_sha256_ctr(seed, seedlen, ctr, nblocks, slab))
            return -1;
        ctr += nblocks;
        left -= nblocks;
        count = left ? have / bits * 8 : n - done;
        unpack_add_groups(stream, bits, sign >> 63, out + done, count,
                          lanes ? count / 8 : 0);
        done += count;
        carried = left ? have % bits : 0;
        memcpy(slab - carried, slab + 32 * nblocks - carried, carried);
    }
    return 0;
}

/* ---------------------------------------------------------------------
 * Fixed-width modular exponentiation (repro.crypto.dh.DHGroup.powers).
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
 * lanes live under the AVX-512 gate of the stream lanes (-DREPRO_NO_X16
 * leaves them out too).
 * ------------------------------------------------------------------ */

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
        return __builtin_cpu_supports("avx512f")
            && __builtin_cpu_supports("avx512ifma") ? 0 : -2;
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

/* ---------------------------------------------------------------------
 * Transform plane: the DSkellam rotation's butterfly and its rounder
 * (repro.dp.rotation.fwht, repro.dp.quantize.stochastic_round).
 *
 * The Walsh-Hadamard transform is *defined* as the butterfly
 * (a, b) -> (a + b, a - b) at strides h = 1, 2, 4, ... n/2 in that
 * order, so every output is one fixed tree of IEEE additions and
 * subtractions (-ffp-contract=off has nothing to fuse here).
 * repro.dp.rotation holds the bit-identical numpy twin.
 * ------------------------------------------------------------------ */

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
