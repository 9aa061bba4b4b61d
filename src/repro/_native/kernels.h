/* What the planes of the native shared object agree on.
 *
 * repro.native compiles every *.c file next to this header in one cc
 * call into one object and binds its repro_* entry points from its
 * kernel table.  One plane a file:
 *
 *   stream.c     the AES-256-CTR counter stream (AES-NI, VAES)
 *   bitpack.c    the masked-vector bit packer and the mask fold
 *   sampler.c    Skellam noise from the counter stream
 *   modexp.c     fixed-width modular exponentiation (scalar, 8 lanes)
 *   transform.c  the DSkellam butterfly and rounder
 *
 * Self-contained on purpose: the C standard library and, on x86-64, the
 * compiler's intrinsics header — nothing to link against.  What one plane
 * uses of another is declared below with hidden visibility, so the
 * object exports its repro_* entry points and nothing else.
 *
 * The AVX-512 loops — the VAES stream (four zmm of four AES blocks), the
 * eight bit-pack lanes and the eight IFMA modexp lanes — share one gate:
 * -DREPRO_NO_X16 leaves them all out, and repro.native retries the build
 * with it when the compiler refuses the section, so losing the lanes
 * never costs the object.  Whether they run is one runtime check per lane
 * set (stream.c, whose answer the bit-pack lanes follow, and modexp.c).
 */
#ifndef REPRO_KERNELS_H
#define REPRO_KERNELS_H

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define HAVE_X86_BUILD 1
#include <immintrin.h>
#endif

#if defined(HAVE_X86_BUILD) && !defined(REPRO_NO_X16)
#define HAVE_X16_BUILD 1
#define X16_TARGET __attribute__((target("avx512f,avx512bw,avx512vl")))
#endif

#define X16_LANES 16 /* AES blocks one step of the VAES stream covers */

/* -DREPRO_TEST_LANES_OFF is a test build that repro.native never makes:
 * the lanes are compiled in, every runtime check answers that this CPU
 * cannot run them, and every lane function traps on entry.  A path that
 * enters a lane function before its check then crashes on any CPU,
 * instead of passing on one that happens to have the instructions. */
#ifdef REPRO_TEST_LANES_OFF
#define CPU_RUNS_LANES(check) 0
#define LANE_ENTRY() __builtin_trap()
#else
#define CPU_RUNS_LANES(check) (check)
#define LANE_ENTRY() ((void)0)
#endif

#ifdef __GNUC__
#define PLANE_SHARED __attribute__((visibility("hidden")))
#else
#define PLANE_SHARED
#endif

/* The longest seed: seed || 0x80 || be64(bit length) fills one 64-byte
 * SHA-256 block, so K = SHA-256(seed) is one compression. */
#define STREAM_MAX_SEED 55

/* stream.c: out[i*32 .. i*32+31] = block ctr0 + i of seed's stream,
 * E_K(be128(2i)) || E_K(be128(2i + 1)) with K = SHA-256(seed), seedlen
 * <= 55; 0, -1 on bad arguments, -2 on a CPU without AES-NI (-3 on a
 * build without x86 intrinsics).  And how many AES blocks one step of it
 * covers here: 16 on VAES, 8 on AES-NI, 0 without AES-NI. */
PLANE_SHARED int ctr_stream(const uint8_t *seed, size_t seedlen,
                            uint64_t ctr0, uint64_t nblocks, uint8_t *out);
PLANE_SHARED int ctr_stream_lanes(void);

/* Fixed eight-byte forms: one move each (the store loop folds into one;
 * the loads say so, as GCC does not fold them inside the mask loop). */
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

#endif /* REPRO_KERNELS_H */
