/**
 * @file
 * Scalar reference kernels and the runtime ISA dispatcher. This TU is
 * compiled with baseline flags only — the scalar table must run on
 * any host the binary reaches. The AVX2 table lives in simd_avx2.cc,
 * the one TU built with -mavx2.
 */

#include "common/simd.hh"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace diffy::simd
{

namespace
{

/** NAF weight: popcount(v ^ 3v); exact in 32 bits for any int16. */
inline int
nafWeight32(std::int32_t v)
{
    return std::popcount(static_cast<std::uint32_t>(v ^ (3 * v)));
}

/** NAF weight in 64 bits: exact for any int32 input. */
inline int
nafWeight64(std::int64_t v)
{
    return std::popcount(static_cast<std::uint64_t>(v ^ (3 * v)));
}

/** Branch-free magnitude fold: v >= 0 ? v : ~v (see bitsNeeded()). */
inline std::uint32_t
foldSign32(std::int32_t v)
{
    return static_cast<std::uint32_t>(v ^ (v >> 31));
}

void
scalarBoothPlane16(const std::int16_t *src, std::uint8_t *dst,
                   std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<std::uint8_t>(nafWeight32(src[i]));
}

void
scalarBoothPlane32(const std::int32_t *src, std::uint8_t *dst,
                   std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<std::uint8_t>(nafWeight64(src[i]));
}

void
scalarBitsPlane16(const std::int16_t *src, std::uint8_t *dst,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::uint8_t>(
            std::bit_width(foldSign32(src[i])) + 1);
    }
}

void
scalarBitsPlane32(const std::int32_t *src, std::uint8_t *dst,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::uint8_t>(
            std::bit_width(foldSign32(src[i])) + 1);
    }
}

int
scalarGroupBits16(const std::int16_t *group, std::size_t n)
{
    // bit_width(a | b) == max(bit_width(a), bit_width(b)), so or-ing
    // the sign-folded magnitudes gives the group maximum in one
    // branch-free reduction.
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < n; ++i)
        m |= foldSign32(group[i]);
    return std::bit_width(m) + 1;
}

std::int64_t
scalarWalkSumMax(const std::uint8_t *base, std::size_t rowStride,
                 std::size_t rows, int colStride, std::uint8_t *colMax,
                 int cols)
{
    std::int64_t sum = 0;
    for (int j = 0; j < cols; ++j)
        colMax[j] = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::uint8_t *row = base + r * rowStride;
        for (int j = 0; j < cols; ++j) {
            const std::uint8_t v =
                row[static_cast<std::size_t>(j) * colStride];
            sum += v;
            if (v > colMax[j])
                colMax[j] = v;
        }
    }
    return sum;
}

void
scalarHashStripes(const unsigned char *p, std::size_t stripes,
                  std::uint32_t acc[8])
{
    // Murmur3-x86 lane mix; every table must implement exactly this
    // per-lane recurrence (lanes are independent by construction).
    constexpr std::uint32_t c1 = 0xCC9E2D51u;
    constexpr std::uint32_t c2 = 0x1B873593u;
    for (std::size_t s = 0; s < stripes; ++s) {
        for (int l = 0; l < 8; ++l) {
            std::uint32_t k;
            std::memcpy(&k, p + 32 * s + 4 * l, 4);
            k *= c1;
            k = std::rotl(k, 15);
            k *= c2;
            acc[l] ^= k;
            acc[l] = std::rotl(acc[l], 13);
            acc[l] = acc[l] * 5 + 0xE6546B64u;
        }
    }
}

} // namespace

const char *
isaName(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return "scalar";
      case Isa::Avx2:
        return "avx2";
    }
    return "?";
}

bool
parseIsa(const std::string &name, Isa &out)
{
    for (Isa isa : {Isa::Scalar, Isa::Avx2}) {
        if (name == isaName(isa)) {
            out = isa;
            return true;
        }
    }
    return false;
}

const KernelTable &
scalarTable()
{
    static const KernelTable t = {
        Isa::Scalar,        &scalarBoothPlane16, &scalarBoothPlane32,
        &scalarBitsPlane16, &scalarBitsPlane32,  &scalarGroupBits16,
        &scalarWalkSumMax,  &scalarHashStripes,
    };
    return t;
}

const KernelTable *
table(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return &scalarTable();
      case Isa::Avx2:
        // DIFFY_SIMD_AVX2 is defined only when the x86 -mavx2 TU is
        // built; the CPUID probe keeps lesser hosts off its table.
#if DIFFY_SIMD_AVX2
        if (__builtin_cpu_supports("avx2"))
            return &detail::avx2Table();
#endif
        return nullptr;
    }
    return nullptr;
}

std::vector<Isa>
availableIsas()
{
    std::vector<Isa> out;
    for (Isa isa : {Isa::Scalar, Isa::Avx2}) {
        if (table(isa) != nullptr)
            out.push_back(isa);
    }
    return out;
}

Isa
bestIsa()
{
    // availableIsas() lists narrow to wide, so the last is the widest.
    return availableIsas().back();
}

const KernelTable &
resolve(const char *request)
{
    if (request == nullptr || *request == '\0' ||
        std::string(request) == "native")
        return *table(bestIsa());
    Isa want = Isa::Scalar;
    if (!parseIsa(request, want)) {
        std::fprintf(stderr,
                     "diffy: unknown DIFFY_ISA '%s' "
                     "(scalar|avx2|native); falling back to scalar\n",
                     request);
        return scalarTable();
    }
    const KernelTable *t = table(want);
    if (t == nullptr) {
        std::fprintf(stderr,
                     "diffy: DIFFY_ISA=%s is not available on this "
                     "host/build; falling back to scalar\n",
                     request);
        return scalarTable();
    }
    return *t;
}

const KernelTable &
kernels()
{
    // Resolved once, first use; the table is immutable afterwards, so
    // concurrent readers only ever see the same pointers (the static
    // initialization itself is thread-safe).
    static const KernelTable &resolved =
        resolve(std::getenv("DIFFY_ISA"));
    return resolved;
}

Isa
activeIsa()
{
    return kernels().isa;
}

} // namespace diffy::simd
