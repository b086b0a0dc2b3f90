/**
 * @file
 * Runtime ISA dispatch for the hot kernels (DESIGN.md §14).
 *
 * The batched inner loops whose vector form pays end to end — the
 * term/bits planes, the int16 group-header reduction, the
 * interior-column pallet walk and content-hash bulk mixing — run
 * through one function-pointer KernelTable resolved once at startup.
 * There are two tables: the scalar reference table, always present,
 * and an AVX2 table compiled in its own translation unit with
 * -mavx2, so the binary still runs on baseline x86 hardware and
 * CPUID decides at runtime.
 *
 * Contract: the AVX2 table returns results identical to the scalar
 * table, bit for bit, on every input the callers can produce. Its
 * kernels use exact-width chunked loads (32/16/8-byte) plus scalar
 * tails — never overreading masked loads — so no buffer padding is
 * required and sanitizers see only in-bounds accesses.
 *
 * `DIFFY_ISA=scalar|avx2|native` overrides the CPUID probe for
 * testing (the CI byte-identical gates run every bench twice); an
 * unknown name or an ISA this host/build lacks warns on stderr and
 * falls back to scalar, so stdout purity is never at risk.
 */

#ifndef DIFFY_COMMON_SIMD_HH
#define DIFFY_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace diffy::simd
{

/**
 * Instruction sets a kernel table can target. The values are stable
 * identifiers (1 belonged to the retired SSE4.2 tier): parameterized
 * test names print the raw enumerator.
 */
enum class Isa
{
    Scalar = 0,
    Avx2 = 2,
};

/** Lowercase name used by DIFFY_ISA and the bench JSON context. */
const char *isaName(Isa isa);

/** Parse an isaName() spelling; returns false on an unknown name. */
bool parseIsa(const std::string &name, Isa &out);

/**
 * The dispatch table. One instance per compiled-in ISA; all entries
 * are non-null and produce results identical to the scalar table.
 */
struct KernelTable
{
    Isa isa = Isa::Scalar;

    /** dst[i] = boothTerms(src[i]), NAF weight via popcount(v^3v). */
    void (*boothTermsPlane16)(const std::int16_t *src, std::uint8_t *dst,
                              std::size_t n) = nullptr;
    void (*boothTermsPlane32)(const std::int32_t *src, std::uint8_t *dst,
                              std::size_t n) = nullptr;

    /** dst[i] = bitsNeeded(src[i]) (two's complement width). */
    void (*bitsNeededPlane16)(const std::int16_t *src, std::uint8_t *dst,
                              std::size_t n) = nullptr;
    void (*bitsNeededPlane32)(const std::int32_t *src, std::uint8_t *dst,
                              std::size_t n) = nullptr;

    /** Group max of bitsNeeded over n values (>= 1, even when n==0). */
    int (*groupBits16)(const std::int16_t *group, std::size_t n) = nullptr;

    /**
     * Pallet-walk interior block: over rows r in [0, rows) and
     * columns j in [0, cols), reads v = base[r*rowStride +
     * j*colStride], OVERWRITES colMax[j] with the per-column max and
     * returns the total sum of every element visited. rows >= 1.
     */
    std::int64_t (*walkSumMax)(const std::uint8_t *base,
                               std::size_t rowStride, std::size_t rows,
                               int colStride, std::uint8_t *colMax,
                               int cols) = nullptr;

    /**
     * contentHash64 bulk mixing: folds @p stripes 32-byte stripes of
     * @p p into the eight 32-bit lane accumulators (Murmur3-x86 lane
     * mix; see bitops.cc). Lanes stay independent, so any width of
     * vector can batch them.
     */
    void (*hashStripes)(const unsigned char *p, std::size_t stripes,
                        std::uint32_t acc[8]) = nullptr;
};

/** The reference table (the scalar kernels); always available. */
const KernelTable &scalarTable();

/**
 * Table for @p isa, or nullptr when it is not compiled in or the CPU
 * lacks it. table(Isa::Scalar) is never null.
 */
const KernelTable *table(Isa isa);

/** Every ISA with a usable table on this host, Scalar first. */
std::vector<Isa> availableIsas();

/** The widest available ISA (what the probe dispatches to). */
Isa bestIsa();

/**
 * The table a DIFFY_ISA value selects. @p request null, empty or
 * "native" picks bestIsa(); an isaName() spelling picks that table.
 * An unknown name, or an ISA this host/build cannot run, warns on
 * stderr and picks the scalar table.
 */
const KernelTable &resolve(const char *request);

/**
 * The dispatched table: resolve(getenv("DIFFY_ISA")), evaluated once
 * on first use and immutable afterwards (thread-safe).
 */
const KernelTable &kernels();

/** ISA of the dispatched table. */
Isa activeIsa();

namespace detail
{

/** The AVX2 table factory, defined in the -mavx2 TU when built. */
const KernelTable &avx2Table();

} // namespace detail

} // namespace diffy::simd

#endif // DIFFY_COMMON_SIMD_HH
