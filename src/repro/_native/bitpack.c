/* Bit-pack plane: the masked-vector bit packer and the mask fold.
 *
 * Ring-width bit packing for masked vectors (repro.wire.bitpack).
 *
 * The wire carries element i of a vector in bits [i*bits, (i+1)*bits)
 * of a little-endian bit stream: bit k of the stream is bit (k & 7) of
 * byte (k >> 3).  The scalar loops move the stream through a 64-bit
 * window, so they touch memory one word at a time; where the CPU has
 * the stream lanes, the reducing pack and the unpack-add (below, with
 * the mask fold) take whole groups of eight elements a zmm register at
 * a time.  repro.wire.bitpack holds the bit-identical numpy fallback.
 */

#include "kernels.h"

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

    LANE_ENTRY();
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

    LANE_ENTRY();
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
    return ctr_stream_lanes() == X16_LANES;
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
 * Mask folding: a seed's ring elements added straight into a vector
 * (repro.crypto.prg.expand_uniform with out=).
 *
 * Over the ring 2**bits, element i of a seed's mask is bits
 * [i*bits, (i+1)*bits) of its counter stream read as the little-endian
 * bit stream of the packer above: a mask is the wire unpacking of its
 * seed's stream, every stream bit used once.  The stream is produced a
 * slab of MASK_SLAB_BLOCKS blocks at a time on the stack (it never
 * leaves L1; whole runs of sixteen, so all of it but the vector's end
 * comes from the lanes, stream.c) and unpack-added into the caller's accumulator
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

        if (ctr_stream(seed, seedlen, ctr, nblocks, slab))
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
