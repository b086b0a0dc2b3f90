#include "core/differential_conv.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/bitops.hh"

namespace diffy
{

namespace
{

template <typename T>
void
checkShapes(const Tensor3<T> &input, const FilterBankI16 &bank)
{
    if (bank.channels() != input.channels())
        throw std::invalid_argument("conv: channel mismatch");
    if (bank.height() != bank.width())
        throw std::invalid_argument("conv: non-square kernel");
}

/** Inner product of one window against one filter, 64-bit exact. */
std::int64_t
windowDot(const TensorI16 &imap, const FilterBankI16 &bank, int f, int oy,
          int ox, const ConvGeometry &g)
{
    std::int64_t acc = 0;
    for (int c = 0; c < imap.channels(); ++c) {
        for (int ky = 0; ky < g.k; ++ky) {
            for (int kx = 0; kx < g.k; ++kx) {
                acc += static_cast<std::int64_t>(imap.atPadded(
                           c, g.input(oy, ky), g.input(ox, kx))) *
                       bank.at(f, c, ky, kx);
            }
        }
    }
    return acc;
}

/**
 * Inner product of one filter against a delta window: the window at
 * output (oy, ox) minus the one at (oy - py, ox - px), with py/px in
 * {0, 1} picking Eq. 4's axis. Out-of-bounds taps read zero padding.
 */
std::int64_t
deltaWindowDot(const TensorI16 &imap, const FilterBankI16 &bank, int f,
               int oy, int ox, int py, int px, const ConvGeometry &g)
{
    std::int64_t acc = 0;
    for (int c = 0; c < imap.channels(); ++c) {
        for (int ky = 0; ky < g.k; ++ky) {
            const int iy = g.input(oy, ky);
            for (int kx = 0; kx < g.k; ++kx) {
                const int ix = g.input(ox, kx);
                const std::int32_t delta =
                    imap.atPadded(c, iy, ix) -
                    imap.atPadded(c, iy - py * g.stride,
                                  ix - px * g.stride);
                acc += static_cast<std::int64_t>(delta) *
                       bank.at(f, c, ky, kx);
            }
        }
    }
    return acc;
}

/**
 * acc[i] += w * in[i * stride] for i < n, forming each product in P:
 * int32 when it is exact there, int64 otherwise.
 */
template <typename P, typename T>
void
axpyRow(std::int64_t *acc, const T *in, int n, int stride, P w)
{
    for (int i = 0; i < n; ++i)
        acc[i] += w * in[i * stride];
}

} // namespace

std::int32_t
clampToI32(std::int64_t v)
{
    // Accumulators fit comfortably for 16b data and the kernel sizes
    // studied; keep a hard check rather than silent wraparound.
    if (v > std::numeric_limits<std::int32_t>::max() ||
        v < std::numeric_limits<std::int32_t>::min()) {
        throw std::overflow_error("conv: accumulator overflow");
    }
    return static_cast<std::int32_t>(v);
}

template <typename T>
TensorI32
convolveRowScatter(const Tensor3<T> &input, const FilterBankI16 &bank,
                   int stride, int dilation)
{
    checkShapes(input, bank);
    const int in_h = input.height();
    const int in_w = input.width();
    const ConvGeometry g(in_h, in_w, bank.height(), stride, dilation);

    // Valid ox range per kx, so the axpy below needs no bounds check.
    AlignedVec<ConvGeometry::Range> oxValid(
        g.k, scratchAlloc<ConvGeometry::Range>());
    for (int kx = 0; kx < g.k; ++kx)
        oxValid[kx] = g.validOutputs(kx, in_w, g.outW);
    // An int16 tap times a value of at most 17 bits (|v| <= 65535,
    // which covers every delta of int16 frames) is exact in int32;
    // wider inputs form their products in int64.
    bool narrow = true;
    if constexpr (sizeof(T) > sizeof(std::int16_t)) {
        narrow = std::all_of(input.data(), input.data() + input.size(),
                             [](T v) { return v >= -65535 && v <= 65535; });
    }
    // An all-zero input row (a still region of a temporal delta, a
    // ReLU-dead band) contributes nothing to any filter.
    AlignedVec<std::uint8_t> liveRow(
        static_cast<std::size_t>(input.channels()) * in_h,
        scratchAlloc<std::uint8_t>());
    for (std::size_t r = 0; r < liveRow.size(); ++r) {
        const T *row = input.data() + r * in_w;
        liveRow[r] = std::any_of(row, row + in_w,
                                 [](T v) { return v != 0; });
    }

    AlignedVec<std::int64_t> acc(g.outW, scratchAlloc<std::int64_t>());
    TensorI32 out(bank.filters(), g.outH, g.outW,
                  scratchAlloc<std::int32_t>());
    std::int32_t *dst = out.data();
    for (int f = 0; f < bank.filters(); ++f) {
        for (int oy = 0; oy < g.outH; ++oy, dst += g.outW) {
            std::fill(acc.begin(), acc.end(), 0);
            for (int c = 0; c < input.channels(); ++c) {
                for (int ky = 0; ky < g.k; ++ky) {
                    const int iy = g.input(oy, ky);
                    if (iy < 0 || iy >= in_h)
                        continue;
                    const std::size_t r =
                        static_cast<std::size_t>(c) * in_h + iy;
                    if (!liveRow[r])
                        continue;
                    const T *in_row = input.data() + r * in_w;
                    const std::int16_t *taps = &bank.at(f, c, ky, 0);
                    for (int kx = 0; kx < g.k; ++kx) {
                        const std::int16_t w = taps[kx];
                        const auto [lo, hi] = oxValid[kx];
                        if (w == 0 || hi <= lo)
                            continue;
                        const T *ip = in_row + g.input(lo, kx);
                        std::int64_t *op = acc.data() + lo;
                        const int n = hi - lo;
                        if (narrow)
                            axpyRow<std::int32_t>(op, ip, n, stride, w);
                        else
                            axpyRow<std::int64_t>(op, ip, n, stride, w);
                    }
                }
            }
            for (int ox = 0; ox < g.outW; ++ox)
                dst[ox] = clampToI32(acc[ox]);
        }
    }
    return out;
}

template TensorI32 convolveRowScatter(const TensorI16 &,
                                      const FilterBankI16 &, int, int);
template TensorI32 convolveRowScatter(const TensorI32 &,
                                      const FilterBankI16 &, int, int);

TensorI32
convolveDirect(const TensorI16 &imap, const FilterBankI16 &bank,
               int stride, int dilation)
{
    return convolveRowScatter(imap, bank, stride, dilation);
}

TensorI32
convolveDifferential(const TensorI16 &imap, const FilterBankI16 &bank,
                     int stride, int dilation)
{
    checkShapes(imap, bank);
    const ConvGeometry g(imap.height(), imap.width(), bank.height(),
                         stride, dilation);

    TensorI32 out(bank.filters(), g.outH, g.outW,
                  scratchAlloc<std::int32_t>());
    for (int f = 0; f < bank.filters(); ++f) {
        for (int oy = 0; oy < g.outH; ++oy) {
            // Phase 1: leftmost output directly, the rest as
            // differential terms <W, delta window>.
            std::int64_t base = windowDot(imap, bank, f, oy, 0, g);
            out.at(f, oy, 0) = clampToI32(base);
            for (int ox = 1; ox < g.outW; ++ox) {
                // Phase 2 (cascaded reconstruction), fused here.
                base += deltaWindowDot(imap, bank, f, oy, ox, 0, 1, g);
                out.at(f, oy, ox) = clampToI32(base);
            }
        }
    }
    return out;
}

TensorI32
convolveDifferentialY(const TensorI16 &imap, const FilterBankI16 &bank,
                      int stride, int dilation)
{
    checkShapes(imap, bank);
    const ConvGeometry g(imap.height(), imap.width(), bank.height(),
                         stride, dilation);

    TensorI32 out(bank.filters(), g.outH, g.outW,
                  scratchAlloc<std::int32_t>());
    for (int f = 0; f < bank.filters(); ++f) {
        for (int ox = 0; ox < g.outW; ++ox) {
            std::int64_t base = windowDot(imap, bank, f, 0, ox, g);
            out.at(f, 0, ox) = clampToI32(base);
            for (int oy = 1; oy < g.outH; ++oy) {
                base += deltaWindowDot(imap, bank, f, oy, ox, 1, 0, g);
                out.at(f, oy, ox) = clampToI32(base);
            }
        }
    }
    return out;
}

ConvWorkCount
countDifferentialWorkY(const TensorI16 &imap, const FilterBankI16 &bank,
                       int stride, int dilation)
{
    checkShapes(imap, bank);
    const ConvGeometry g(imap.height(), imap.width(), bank.height(),
                         stride, dilation);

    ConvWorkCount wc;
    const std::uint64_t filters =
        static_cast<std::uint64_t>(bank.filters());
    for (int oy = 0; oy < g.outH; ++oy) {
        for (int ox = 0; ox < g.outW; ++ox) {
            for (int c = 0; c < imap.channels(); ++c) {
                for (int ky = 0; ky < g.k; ++ky) {
                    const int iy = g.input(oy, ky);
                    // The top row's padding taps are true zeros; below
                    // it they difference against the row one stride up.
                    if (oy == 0 && (iy < 0 || iy >= imap.height()))
                        continue;
                    for (int kx = 0; kx < g.k; ++kx) {
                        const int ix = g.input(ox, kx);
                        if (ix < 0 || ix >= imap.width())
                            continue;
                        std::int32_t value = imap.atPadded(c, iy, ix);
                        if (oy > 0)
                            value -= imap.atPadded(c, iy - g.stride, ix);
                        wc.multiplierTerms +=
                            static_cast<std::uint64_t>(
                                boothTerms(value)) *
                            filters;
                        wc.macs += filters;
                    }
                }
            }
        }
    }
    return wc;
}

namespace
{

template <bool kDifferential>
ConvWorkCount
countWork(const TensorI16 &imap, const FilterBankI16 &bank, int stride,
          int dilation)
{
    checkShapes(imap, bank);
    const ConvGeometry g(imap.height(), imap.width(), bank.height(),
                         stride, dilation);

    ConvWorkCount wc;
    // Work is identical across filters; count one filter's stream and
    // scale, since the activation term content does not depend on f.
    const std::uint64_t filters =
        static_cast<std::uint64_t>(bank.filters());
    for (int oy = 0; oy < g.outH; ++oy) {
        for (int ox = 0; ox < g.outW; ++ox) {
            for (int c = 0; c < imap.channels(); ++c) {
                for (int ky = 0; ky < g.k; ++ky) {
                    const int iy = g.input(oy, ky);
                    if (iy < 0 || iy >= imap.height())
                        continue;
                    for (int kx = 0; kx < g.k; ++kx) {
                        const int ix = g.input(ox, kx);
                        std::int32_t value = imap.atPadded(c, iy, ix);
                        if (kDifferential && ox > 0)
                            value -= imap.atPadded(c, iy, ix - g.stride);
                        wc.multiplierTerms +=
                            static_cast<std::uint64_t>(
                                boothTerms(value)) *
                            filters;
                        wc.macs += filters;
                    }
                }
            }
        }
    }
    return wc;
}

} // namespace

ConvWorkCount
countDirectWork(const TensorI16 &imap, const FilterBankI16 &bank,
                int stride, int dilation)
{
    return countWork<false>(imap, bank, stride, dilation);
}

ConvWorkCount
countDifferentialWork(const TensorI16 &imap, const FilterBankI16 &bank,
                      int stride, int dilation)
{
    return countWork<true>(imap, bank, stride, dilation);
}

} // namespace diffy
