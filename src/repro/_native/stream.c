/* Stream plane: the AES-256-CTR counter stream.
 *
 * Block i (32 bytes) of a seed's stream is E_K(be128(2i)) || E_K(be128(2i+1))
 * with K = SHA-256(seed): AES-256 in counter mode from a zero counter
 * block, the whole 128-bit block incremented big-endian, read 32 bytes a
 * block so that every caller counts in 32-byte blocks.  A seed is at most
 * STREAM_MAX_SEED = 55 bytes, so K is one compression of one padded block
 * (portable C, or SHA-NI where the CPU has it).  The AES runs on AES-NI,
 * eight blocks in flight in xmm registers, or — where the CPU has VAES and
 * AVX-512 — four zmm registers of four blocks each.  It is the exact stream
 * of repro.crypto.prg.PRGReference; the mask fold and the noise loop draw
 * it from here (ctr_stream, kernels.h).
 *
 * There is no portable C AES: on a CPU without AES-NI ctr_stream answers
 * -2, and repro.native announces that the stream, the mask fold and the
 * noise loop run in Python, which serves the same bytes.
 *
 * The mask fold and the masked input (bitpack.c) derive each seed's key
 * once a call (stream_key_derive) and stream a 2 KiB slab at a time from
 * it (keyed_stream).  The noise loop calls ctr_stream once a slab with the
 * same seed; each thread keeps the round keys of the last seed it saw, so
 * there too K and its key schedule are derived once per kernel call, not
 * once a slab (at that size a derivation costs about a third of the AES).
 */

#include "kernels.h"

static const uint32_t SHA256_K[64] = {
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
        uint32_t t1 = h + S1 + ch + SHA256_K[i] + w[i];
        uint32_t S0 = ROR(a, 2) ^ ROR(a, 13) ^ ROR(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = S0 + maj;
        h = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }

    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

#ifdef HAVE_X86_BUILD
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
#endif /* HAVE_X86_BUILD */

#define KEY_SCALAR 1 /* K on the portable compression */
#define KEY_SHANI 2  /* K on SHA-NI */
#define AES_NI 1     /* AES-NI, eight xmm blocks in flight */
#define AES_VAES 2   /* VAES, four zmm registers of four blocks */
#define AES_ROUNDS 14
#define AES_NI_BLOCKS 8

/* 0 when this build on this CPU can derive K on `path`, -2 when the CPU
 * lacks its instructions, -3 when the build left it out, -1 for no path. */
static int key_status(int path)
{
    switch (path) {
    case KEY_SCALAR:
        return 0;
    case KEY_SHANI:
#ifdef HAVE_X86_BUILD
        return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")
            && __builtin_cpu_supports("ssse3") ? 0 : -2;
#else
        return -3;
#endif
    default:
        return -1;
    }
}

/* The same answers for an AES path. */
static int aes_status(int path)
{
    switch (path) {
    case AES_NI:
#ifdef HAVE_X86_BUILD
        return __builtin_cpu_supports("aes") && __builtin_cpu_supports("ssse3") ? 0 : -2;
#else
        return -3;
#endif
    case AES_VAES:
#ifdef HAVE_X16_BUILD
        return CPU_RUNS_LANES(!aes_status(AES_NI) && __builtin_cpu_supports("vaes")
            && __builtin_cpu_supports("avx512f")
            && __builtin_cpu_supports("avx512bw")
            && __builtin_cpu_supports("avx512vl")) ? 0 : -2;
#else
        return -3;
#endif
    default:
        return -1;
    }
}

/* K = SHA-256(seed), seedlen <= STREAM_MAX_SEED, on compression `path`. */
static void derive_key(int path, const uint8_t *seed, size_t seedlen,
                       uint8_t key[32])
{
    uint8_t block[64] = {0};
    uint64_t bits = (uint64_t)seedlen * 8;
    uint32_t st[8];
    int j;

    memcpy(block, seed, seedlen);
    block[seedlen] = 0x80;
    for (j = 0; j < 8; j++)
        block[63 - j] = (uint8_t)(bits >> (8 * j));
    memcpy(st, H0, sizeof(st));
#ifdef HAVE_X86_BUILD
    if (path == KEY_SHANI)
        compress_shani(st, block);
    else
#endif
        compress_scalar(st, block);
    for (j = 0; j < 8; j++) {
        key[4 * j] = (uint8_t)(st[j] >> 24);
        key[4 * j + 1] = (uint8_t)(st[j] >> 16);
        key[4 * j + 2] = (uint8_t)(st[j] >> 8);
        key[4 * j + 3] = (uint8_t)st[j];
    }
}

#ifdef HAVE_X86_BUILD
#define AES_TARGET __attribute__((target("aes,ssse3")))

/* One key-schedule step (FIPS-197 5.2, Nk = 8): the four words of k, each
 * xored with the ones before it, then with the broadcast word t. */
AES_TARGET
static inline __m128i key_step(__m128i k, __m128i t)
{
    k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
    k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
    k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
    return _mm_xor_si128(k, t);
}

/* Round key 2i from 2i - 2 and SubWord(RotWord(w)) ^ rcon of the last
 * word of 2i - 1; round key 2i + 1 from 2i - 1 and SubWord of the last
 * word of 2i.  aeskeygenassist wants rcon as an immediate. */
#define KEY_EVEN(rk, i, rcon) (rk[i] = key_step(rk[(i) - 2], _mm_shuffle_epi32( \
    _mm_aeskeygenassist_si128(rk[(i) - 1], rcon), 0xff)))
#define KEY_ODD(rk, i) (rk[i] = key_step(rk[(i) - 2], _mm_shuffle_epi32( \
    _mm_aeskeygenassist_si128(rk[(i) - 1], 0), 0xaa)))

/* The fifteen AES-256 round keys of key. */
AES_TARGET
static void expand_key(const uint8_t key[32], __m128i rk[AES_ROUNDS + 1])
{
    rk[0] = _mm_loadu_si128((const __m128i *)key);
    rk[1] = _mm_loadu_si128((const __m128i *)(key + 16));
    KEY_EVEN(rk, 2, 0x01); KEY_ODD(rk, 3);
    KEY_EVEN(rk, 4, 0x02); KEY_ODD(rk, 5);
    KEY_EVEN(rk, 6, 0x04); KEY_ODD(rk, 7);
    KEY_EVEN(rk, 8, 0x08); KEY_ODD(rk, 9);
    KEY_EVEN(rk, 10, 0x10); KEY_ODD(rk, 11);
    KEY_EVEN(rk, 12, 0x20); KEY_ODD(rk, 13);
    KEY_EVEN(rk, 14, 0x40);
}

/* The counter block hi:lo (a 128-bit integer) as AES reads it: big-endian. */
AES_TARGET
static inline __m128i counter_block(uint64_t hi, uint64_t lo)
{
    return _mm_shuffle_epi8(_mm_set_epi64x((long long)hi, (long long)lo),
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

/* out[16j .. 16j+15] = E(hi:lo + j) for j in [0, n), eight blocks at a
 * time; a last group short of eight goes through a scratch copy. */
AES_TARGET
static void aes_ni_ctr(const __m128i rk[AES_ROUNDS + 1], uint64_t hi,
                       uint64_t lo, uint64_t n, uint8_t *out)
{
    uint64_t i;

    for (i = 0; i < n; i += AES_NI_BLOCKS) {
        __m128i x[AES_NI_BLOCKS];
        uint8_t scratch[16 * AES_NI_BLOCKS];
        uint8_t *dst = n - i < AES_NI_BLOCKS ? scratch : out + 16 * i;
        int j, r;

        for (j = 0; j < AES_NI_BLOCKS; j++) {
            x[j] = _mm_xor_si128(counter_block(hi, lo), rk[0]);
            hi += !++lo;
        }
        for (r = 1; r < AES_ROUNDS; r++)
            for (j = 0; j < AES_NI_BLOCKS; j++)
                x[j] = _mm_aesenc_si128(x[j], rk[r]);
        for (j = 0; j < AES_NI_BLOCKS; j++)
            _mm_storeu_si128((__m128i *)(dst + 16 * j),
                             _mm_aesenclast_si128(x[j], rk[AES_ROUNDS]));
        if (dst == scratch)
            memcpy(out + 16 * i, scratch, 16 * (size_t)(n - i));
    }
}

#ifdef HAVE_X16_BUILD
#define VAES_TARGET __attribute__((target("vaes,avx512f,avx512bw,avx512vl")))

/* The same blocks sixteen at a time: four zmm registers, 128-bit lane q
 * of register r holding counter hi:lo + 4r + q.  The counters are kept
 * as little-endian 128-bit integers — qword 2q the low half, 2q + 1 the
 * high — so a step is one 64-bit add, and a low half that wrapped
 * (ended below the step) carries one into the high half beside it; a
 * byte reversal inside each lane makes the blocks. */
VAES_TARGET
static void aes_vaes_ctr(const __m128i rk[AES_ROUNDS + 1], uint64_t hi,
                         uint64_t lo, uint64_t n, uint8_t *out)
{
    const __m512i reverse = _mm512_broadcast_i32x4(_mm_set_epi8(
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
    const __m512i step = _mm512_setr_epi64(X16_LANES, 0, X16_LANES, 0,
                                           X16_LANES, 0, X16_LANES, 0);
    const __m512i one = _mm512_set1_epi64(1);
    __m512i k[AES_ROUNDS + 1], ctr[4];
    uint64_t halves[2 * X16_LANES], i;
    int j, r;

    LANE_ENTRY();
    for (r = 0; r <= AES_ROUNDS; r++)
        k[r] = _mm512_broadcast_i32x4(rk[r]);
    for (j = 0; j < X16_LANES; j++) {
        halves[2 * j] = lo;
        halves[2 * j + 1] = hi;
        hi += !++lo;
    }
    for (j = 0; j < 4; j++)
        ctr[j] = _mm512_loadu_si512(halves + 8 * j);
    for (i = 0; i < n; i += X16_LANES) {
        __m512i x[4];
        uint8_t scratch[16 * X16_LANES];
        uint8_t *dst = n - i < X16_LANES ? scratch : out + 16 * i;

        for (j = 0; j < 4; j++) {
            __mmask8 wrapped;

            x[j] = _mm512_xor_si512(_mm512_shuffle_epi8(ctr[j], reverse), k[0]);
            ctr[j] = _mm512_add_epi64(ctr[j], step);
            wrapped = _mm512_mask_cmplt_epu64_mask(0x55, ctr[j], step);
            ctr[j] = _mm512_mask_add_epi64(ctr[j], (__mmask8)(wrapped << 1),
                                           ctr[j], one);
        }
        for (r = 1; r < AES_ROUNDS; r++)
            for (j = 0; j < 4; j++)
                x[j] = _mm512_aesenc_epi128(x[j], k[r]);
        for (j = 0; j < 4; j++)
            _mm512_storeu_si512(dst + 64 * j,
                                _mm512_aesenclast_epi128(x[j], k[AES_ROUNDS]));
        if (dst == scratch)
            memcpy(out + 16 * i, scratch, 16 * (size_t)(n - i));
    }
}
#endif /* HAVE_X16_BUILD */

/* n blocks of E(hi:lo + j) on AES path `path`, which can run here. */
static void aes_ctr(int path, const __m128i rk[AES_ROUNDS + 1], uint64_t hi,
                    uint64_t lo, uint64_t n, uint8_t *out)
{
#ifdef HAVE_X16_BUILD
    if (path == AES_VAES) {
        aes_vaes_ctr(rk, hi, lo, n, out);
        return;
    }
#endif
    (void)path;
    aes_ni_ctr(rk, hi, lo, n, out);
}

/* The key of the last seed this thread streamed. */
static __thread struct {
    stream_key key;
    size_t seedlen;
    uint8_t seed[STREAM_MAX_SEED];
    int held;
} last_key;
#endif /* HAVE_X86_BUILD */

/* AES blocks one step of the stream covers: 16 on the VAES path (which
 * also turns the bit-pack lanes on, bitpack.c), 8 on AES-NI, 0 on a CPU
 * without AES-NI — which has no stream here. */
int ctr_stream_lanes(void)
{
    static int answer; /* lanes + 1, 0 until asked */

    if (!answer)
        answer = 1 + (!aes_status(AES_VAES) ? X16_LANES
                      : !aes_status(AES_NI) ? AES_NI_BLOCKS : 0);
    return answer - 1;
}

int repro_stream_lanes(void)
{
    return ctr_stream_lanes();
}

/* Which compression derives K: 1 = portable C, 2 = SHA-NI; 0 when this
 * CPU has no stream here (no AES-NI). */
int repro_stream_backend(void)
{
    static int answer; /* backend + 1, 0 until asked */

    if (!answer)
        answer = 1 + (!ctr_stream_lanes() ? 0
                      : key_status(KEY_SHANI) ? KEY_SCALAR : KEY_SHANI);
    return answer - 1;
}

int stream_key_derive(const uint8_t *seed, size_t seedlen, stream_key *key)
{
    if (seed == NULL || key == NULL || seedlen > STREAM_MAX_SEED)
        return -1;
    if (!ctr_stream_lanes())
        return aes_status(AES_NI);
#ifdef HAVE_X86_BUILD
    {
        uint8_t k[32];
        __m128i rk[AES_ROUNDS + 1];
        int r;

        derive_key(repro_stream_backend(), seed, seedlen, k);
        expand_key(k, rk);
        for (r = 0; r <= AES_ROUNDS; r++)
            _mm_storeu_si128((__m128i *)(key->rk + 2 * r), rk[r]);
    }
#endif
    return 0;
}

void keyed_stream(const stream_key *key, uint64_t ctr0, uint64_t nblocks,
                  uint8_t *out)
{
#ifdef HAVE_X86_BUILD
    __m128i rk[AES_ROUNDS + 1];
    int r;

    for (r = 0; r <= AES_ROUNDS; r++)
        rk[r] = _mm_loadu_si128((const __m128i *)(key->rk + 2 * r));
    /* Stream block ctr0 starts at AES block 2 * ctr0, a 65-bit number. */
    aes_ctr(ctr_stream_lanes() == X16_LANES ? AES_VAES : AES_NI, rk,
            ctr0 >> 63, ctr0 << 1, 2 * nblocks, out);
#else
    (void)key;
    (void)ctr0;
    (void)nblocks;
    (void)out;
#endif
}

int ctr_stream(const uint8_t *seed, size_t seedlen,
               uint64_t ctr0, uint64_t nblocks, uint8_t *out)
{
    if (seed == NULL || out == NULL || seedlen > STREAM_MAX_SEED)
        return -1;
    if (!ctr_stream_lanes())
        return aes_status(AES_NI);
#ifdef HAVE_X86_BUILD
    if (!last_key.held || last_key.seedlen != seedlen
        || memcmp(last_key.seed, seed, seedlen)) {
        stream_key_derive(seed, seedlen, &last_key.key);
        memcpy(last_key.seed, seed, seedlen);
        last_key.seedlen = seedlen;
        last_key.held = 1;
    }
    keyed_stream(&last_key.key, ctr0, nblocks, out);
#else
    (void)ctr0;
    (void)nblocks;
#endif
    return 0;
}

/* out[i*32 .. i*32+31] = block ctr0 + i of seed's stream, seedlen <= 55.
 * Returns 0, -1 on bad arguments, -2 (-3) when this CPU (build) has no
 * AES-NI. */
int repro_stream(const uint8_t *seed, size_t seedlen,
                 uint64_t ctr0, uint64_t nblocks, uint8_t *out)
{
    return ctr_stream(seed, seedlen, ctr0, nblocks, out);
}

/* The AES-256-CTR keystream of a raw key from a raw counter block:
 * out[16j .. 16j+15] = E_key(counter + j), j in [0, n), on AES path 1
 * (AES-NI) or 2 (VAES, ragged ends included) — the known-answer vectors
 * and the path this host would never pick.  Not reachable from
 * configuration.  Returns 0, -1 on bad arguments, -2 when the CPU lacks
 * the path, -3 when the build does. */
int repro_stream_path(int path, const uint8_t *key, const uint8_t *counter,
                      uint64_t n, uint8_t *out)
{
    int status = aes_status(path);

    if (status)
        return status;
    if (key == NULL || counter == NULL || out == NULL)
        return -1;
#ifdef HAVE_X86_BUILD
    {
        __m128i rk[AES_ROUNDS + 1];

        expand_key(key, rk);
        aes_ctr(path, rk, load_be64(counter), load_be64(counter + 8), n, out);
    }
#else
    (void)n;
#endif
    return 0;
}

/* K = SHA-256(seed), seedlen <= 55, on compression path 1 (portable C)
 * or 2 (SHA-NI), into key[0 .. 31].  Same answers as repro_stream_path. */
int repro_stream_key_path(int path, const uint8_t *seed, size_t seedlen,
                          uint8_t *key)
{
    int status = key_status(path);

    if (status)
        return status;
    if (seed == NULL || key == NULL || seedlen > STREAM_MAX_SEED)
        return -1;
    derive_key(path, seed, seedlen, key);
    return 0;
}
