/**
 * @file
 * AVX2 kernel table, compiled with -mavx2 in this TU only. The plane
 * kernels run 256-bit lanes; the short-group, walk and hash kernels
 * run 128-bit lanes (group sizes and window widths rarely exceed 16,
 * and the hash state is two 128-bit halves, so wider registers buy
 * nothing there). Partial chunks finish in the scalar reference
 * kernels, which keeps the tails exact by construction.
 */

#include "common/simd.hh"

#include <bit>
#include <cstddef>
#include <cstdint>

#include <immintrin.h>

namespace diffy::simd
{

namespace
{

/** Per-byte popcount via the nibble-LUT shuffle, 32 bytes at a time. */
inline __m256i
popcountBytes256(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1,
        2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0F);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

/** Per-dword popcount of the eight 32-bit lanes of @p v. */
inline __m256i
popcountDwords256(__m256i v)
{
    const __m256i bytes = popcountBytes256(v);
    // Horizontal add of the 4 byte counts per dword: bytes are <= 8,
    // so unsigned*signed maddubs never overflows int16.
    const __m256i ones8 = _mm256_set1_epi8(1);
    const __m256i ones16 = _mm256_set1_epi16(1);
    return _mm256_madd_epi16(_mm256_maddubs_epi16(bytes, ones8),
                             ones16);
}

/** v ^ 3v in 32-bit lanes (exact while |v| < 2^29). */
inline __m256i
nafXor256(__m256i v)
{
    const __m256i v3 =
        _mm256_add_epi32(_mm256_add_epi32(v, v), v);
    return _mm256_xor_si256(v, v3);
}

/** Sign fold in 32-bit lanes: v ^ (v >> 31). */
inline __m256i
foldSign256(__m256i v)
{
    return _mm256_xor_si256(v, _mm256_srai_epi32(v, 31));
}

/**
 * bit_width of each (non-negative) 32-bit lane via bit smearing:
 * after OR-ing in every right shift the lane holds 2^bit_width - 1,
 * whose popcount is the width.
 */
inline __m256i
bitWidthDwords256(__m256i m)
{
    m = _mm256_or_si256(m, _mm256_srli_epi32(m, 1));
    m = _mm256_or_si256(m, _mm256_srli_epi32(m, 2));
    m = _mm256_or_si256(m, _mm256_srli_epi32(m, 4));
    m = _mm256_or_si256(m, _mm256_srli_epi32(m, 8));
    m = _mm256_or_si256(m, _mm256_srli_epi32(m, 16));
    return popcountDwords256(m);
}

/**
 * Pack 16 dword counts (two regs of 8, each < 256) into 16 linear
 * bytes. packs/packus interleave the 128-bit lanes, so a cross-lane
 * dword permute restores element order before the store.
 */
inline void
storeCounts16(std::uint8_t *dst, __m256i lo, __m256i hi)
{
    const __m256i w = _mm256_packs_epi32(lo, hi);
    const __m256i b =
        _mm256_packus_epi16(w, _mm256_setzero_si256());
    const __m256i order =
        _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0);
    const __m256i lin = _mm256_permutevar8x32_epi32(b, order);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(dst),
                     _mm256_castsi256_si128(lin));
}

/** Pack 8 dword counts into 8 linear bytes. */
inline void
storeCounts8(std::uint8_t *dst, __m256i cnt)
{
    const __m256i w =
        _mm256_packs_epi32(cnt, _mm256_setzero_si256());
    const __m256i b =
        _mm256_packus_epi16(w, _mm256_setzero_si256());
    const __m256i order =
        _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
    const __m256i lin = _mm256_permutevar8x32_epi32(b, order);
    _mm_storel_epi64(reinterpret_cast<__m128i *>(dst),
                     _mm256_castsi256_si128(lin));
}

/** Widen 16 int16 to two regs of 8 int32 (in element order). */
inline void
widen16(const std::int16_t *src, __m256i &lo, __m256i &hi)
{
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(src));
    lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v));
    hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(v, 1));
}

void
avx2BoothPlane16(const std::int16_t *src, std::uint8_t *dst,
                 std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m256i lo;
        __m256i hi;
        widen16(src + i, lo, hi);
        storeCounts16(dst + i, popcountDwords256(nafXor256(lo)),
                      popcountDwords256(nafXor256(hi)));
    }
    scalarTable().boothTermsPlane16(src + i, dst + i, n - i);
}

void
avx2BoothPlane32(const std::int32_t *src, std::uint8_t *dst,
                 std::size_t n)
{
    // 32-bit lanes keep v^3v exact only while the folded magnitude is
    // below 2^29 (3v must not overflow). Encode-side deltas are
    // 17-bit quantities, so the wide path is the near-universal case;
    // a chunk containing any big value takes the 64-bit scalar path.
    const __m256i big = _mm256_set1_epi32(0x1FFFFFFF);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        if (_mm256_movemask_epi8(
                _mm256_cmpgt_epi32(foldSign256(v), big)) != 0) {
            scalarTable().boothTermsPlane32(src + i, dst + i, 8);
            continue;
        }
        storeCounts8(dst + i, popcountDwords256(nafXor256(v)));
    }
    scalarTable().boothTermsPlane32(src + i, dst + i, n - i);
}

void
avx2BitsPlane16(const std::int16_t *src, std::uint8_t *dst,
                std::size_t n)
{
    const __m256i one = _mm256_set1_epi32(1);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m256i lo;
        __m256i hi;
        widen16(src + i, lo, hi);
        storeCounts16(
            dst + i,
            _mm256_add_epi32(bitWidthDwords256(foldSign256(lo)), one),
            _mm256_add_epi32(bitWidthDwords256(foldSign256(hi)),
                             one));
    }
    scalarTable().bitsNeededPlane16(src + i, dst + i, n - i);
}

void
avx2BitsPlane32(const std::int32_t *src, std::uint8_t *dst,
                std::size_t n)
{
    const __m256i one = _mm256_set1_epi32(1);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        storeCounts8(
            dst + i,
            _mm256_add_epi32(bitWidthDwords256(foldSign256(v)), one));
    }
    scalarTable().bitsNeededPlane32(src + i, dst + i, n - i);
}

/** OR-reduce the four 32-bit lanes of @p v. */
inline std::uint32_t
orReduceDwords(__m128i v)
{
    const std::uint64_t a = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(v));
    const std::uint64_t b = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_srli_si128(v, 8)));
    const std::uint64_t m = a | b;
    return static_cast<std::uint32_t>(m | (m >> 32));
}

int
avx2GroupBits16(const std::int16_t *group, std::size_t n)
{
    __m128i acc = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(group + i));
        // 16-bit sign fold: for int16 inputs it equals the low half
        // of the 32-bit fold and the high half is zero.
        acc = _mm_or_si128(
            acc, _mm_xor_si128(v, _mm_srai_epi16(v, 15)));
    }
    const std::uint32_t wide = orReduceDwords(acc);
    std::uint32_t m = (wide | (wide >> 16)) & 0xFFFFu;
    for (; i < n; ++i) {
        const std::int32_t v = group[i];
        m |= static_cast<std::uint32_t>(v ^ (v >> 31));
    }
    return std::bit_width(m) + 1;
}

/** Sum of the 16 bytes of @p v, as a 64-bit scalar. */
inline std::int64_t
sumBytes(__m128i v)
{
    const __m128i s = _mm_sad_epu8(v, _mm_setzero_si128());
    return _mm_cvtsi128_si64(s) +
           _mm_cvtsi128_si64(_mm_srli_si128(s, 8));
}

std::int64_t
avx2WalkSumMax(const std::uint8_t *base, std::size_t rowStride,
               std::size_t rows, int colStride, std::uint8_t *colMax,
               int cols)
{
    // Strided windows (stride > 1) and narrow blocks: scalar.
    if (colStride != 1 || cols < 8)
        return scalarTable().walkSumMax(base, rowStride, rows, colStride,
                                        colMax, cols);

    std::int64_t total = 0;
    int j = 0;
    for (; j + 16 <= cols; j += 16) {
        __m128i mx = _mm_setzero_si128();
        __m128i sums = _mm_setzero_si128();
        for (std::size_t r = 0; r < rows; ++r) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    base + r * rowStride + j));
            mx = _mm_max_epu8(mx, v);
            sums = _mm_add_epi64(
                sums, _mm_sad_epu8(v, _mm_setzero_si128()));
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(colMax + j), mx);
        total += _mm_cvtsi128_si64(sums) +
                 _mm_cvtsi128_si64(_mm_srli_si128(sums, 8));
    }
    if (j + 8 <= cols) {
        __m128i mx = _mm_setzero_si128();
        for (std::size_t r = 0; r < rows; ++r) {
            const __m128i v = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(
                    base + r * rowStride + j));
            mx = _mm_max_epu8(mx, v);
            total += sumBytes(v);
        }
        _mm_storel_epi64(reinterpret_cast<__m128i *>(colMax + j), mx);
        j += 8;
    }
    return total + scalarTable().walkSumMax(base + j, rowStride, rows, 1,
                                            colMax + j, cols - j);
}

void
avx2HashStripes(const unsigned char *p, std::size_t stripes,
                std::uint32_t acc[8])
{
    const __m128i c1 = _mm_set1_epi32(
        static_cast<int>(0xCC9E2D51u));
    const __m128i c2 = _mm_set1_epi32(
        static_cast<int>(0x1B873593u));
    const __m128i c3 = _mm_set1_epi32(
        static_cast<int>(0xE6546B64u));
    __m128i a0 = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(acc));
    __m128i a1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(acc + 4));
    for (std::size_t s = 0; s < stripes; ++s) {
        for (int half = 0; half < 2; ++half) {
            __m128i k = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + 32 * s +
                                                  16 * half));
            k = _mm_mullo_epi32(k, c1);
            k = _mm_or_si128(_mm_slli_epi32(k, 15),
                             _mm_srli_epi32(k, 17));
            k = _mm_mullo_epi32(k, c2);
            __m128i &a = half == 0 ? a0 : a1;
            a = _mm_xor_si128(a, k);
            a = _mm_or_si128(_mm_slli_epi32(a, 13),
                             _mm_srli_epi32(a, 19));
            a = _mm_add_epi32(
                _mm_add_epi32(a, _mm_slli_epi32(a, 2)), c3);
        }
    }
    _mm_storeu_si128(reinterpret_cast<__m128i *>(acc), a0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(acc + 4), a1);
}

} // namespace

namespace detail
{

const KernelTable &
avx2Table()
{
    static const KernelTable t = {
        Isa::Avx2,        &avx2BoothPlane16, &avx2BoothPlane32,
        &avx2BitsPlane16, &avx2BitsPlane32,  &avx2GroupBits16,
        &avx2WalkSumMax,  &avx2HashStripes,
    };
    return t;
}

} // namespace detail

} // namespace diffy::simd
