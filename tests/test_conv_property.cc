/**
 * @file
 * Property suite for every fixed-point convolution path.
 *
 * convolveDirect() and convolveTemporalDelta() share one row-scatter
 * core; convolveDifferential() and convolveDifferentialY() are the
 * paper's Eq. 4 reference algorithms. All four are checked against
 * the single naive oracle below — a per-output gather with bounds
 * checks on every tap, deriving its geometry on its own — over random
 * geometry (k in {1,3,5,7}, stride 1-3, dilation 1-4, maps narrower
 * and shorter than the dilated kernel, 1/15/64 channels) and inputs
 * with all-zero rows, zero taps and full 17-bit temporal deltas.
 *
 * Overflow is part of the contract: a path throws std::overflow_error
 * exactly when some output of the oracle leaves the int32 range.
 *
 * The float convolve() of trace capture gets its own gather oracle,
 * and there the contract is bit identity (memcmp): the register-blocked
 * kernel sums every output in the same (c, ky, kx) order, and the
 * padding taps and zero weights it adds on top contribute only +-0.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/rng.hh"
#include "core/differential_conv.hh"
#include "core/temporal.hh"
#include "nn/executor.hh"

namespace diffy
{
namespace
{

/**
 * The naive gather oracle: each output is one 64-bit inner product of
 * its zero-padded window. Returns nullopt when any output does not fit
 * int32, the case every conv path must reject.
 */
template <typename T>
std::optional<TensorI32>
naiveConv(const Tensor3<T> &input, const FilterBankI16 &bank, int stride,
          int dilation)
{
    const int k = bank.height();
    const int eff_k = dilation * (k - 1) + 1;
    const int pad = (eff_k - 1) / 2;
    const int out_h = (input.height() + 2 * pad - eff_k) / stride + 1;
    const int out_w = (input.width() + 2 * pad - eff_k) / stride + 1;
    TensorI32 out(bank.filters(), out_h, out_w);
    for (int f = 0; f < bank.filters(); ++f) {
        for (int oy = 0; oy < out_h; ++oy) {
            for (int ox = 0; ox < out_w; ++ox) {
                std::int64_t acc = 0;
                for (int c = 0; c < input.channels(); ++c) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy * stride + ky * dilation - pad;
                        if (iy < 0 || iy >= input.height())
                            continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix =
                                ox * stride + kx * dilation - pad;
                            if (ix < 0 || ix >= input.width())
                                continue;
                            acc += static_cast<std::int64_t>(
                                       input.at(c, iy, ix)) *
                                   bank.at(f, c, ky, kx);
                        }
                    }
                }
                if (acc > std::numeric_limits<std::int32_t>::max() ||
                    acc < std::numeric_limits<std::int32_t>::min())
                    return std::nullopt;
                out.at(f, oy, ox) = static_cast<std::int32_t>(acc);
            }
        }
    }
    return out;
}

/** Uniform draw in [-bound, bound]. */
std::int32_t
draw(Rng &rng, std::int32_t bound)
{
    return static_cast<std::int32_t>(
               rng.below(2 * static_cast<std::uint64_t>(bound) + 1)) -
           bound;
}

/**
 * Random map whose rows are each, with probability 1/3, all zero; the
 * remaining values are zero with probability 1/4.
 */
template <typename T>
Tensor3<T>
randomMap(Rng &rng, int c, int h, int w, std::int32_t bound)
{
    Tensor3<T> t(c, h, w);
    for (int ch = 0; ch < c; ++ch) {
        for (int y = 0; y < h; ++y) {
            if (rng.below(3) == 0)
                continue;
            for (int x = 0; x < w; ++x) {
                if (rng.below(4) != 0)
                    t.at(ch, y, x) = static_cast<T>(draw(rng, bound));
            }
        }
    }
    return t;
}

/** Random bank whose taps are zero with probability 1/3. */
FilterBankI16
randomBank(Rng &rng, int filters, int c, int k, std::int32_t bound)
{
    FilterBankI16 bank(filters, c, k, k);
    for (std::size_t i = 0; i < bank.size(); ++i) {
        if (rng.below(3) != 0)
            bank.data()[i] = static_cast<std::int16_t>(draw(rng, bound));
    }
    return bank;
}

/** Either the path's output, or nullopt when it threw on overflow. */
template <typename Fn>
std::optional<TensorI32>
runPath(Fn &&fn)
{
    try {
        return fn();
    } catch (const std::overflow_error &) {
        return std::nullopt;
    }
}

class ConvProperty : public ::testing::TestWithParam<int>
{};

TEST_P(ConvProperty, EveryPathMatchesTheNaiveGather)
{
    const int channels = GetParam();
    Rng rng(0xC0DE + static_cast<std::uint64_t>(channels));
    const int kernels[] = {1, 3, 5, 7};
    int compared = 0;
    int overflowed = 0;
    for (int trial = 0; trial < 160; ++trial) {
        const int k = kernels[rng.below(4)];
        const int stride = 1 + static_cast<int>(rng.below(3));
        const int dilation = 1 + static_cast<int>(rng.below(4));
        const int eff_k = dilation * (k - 1) + 1;
        // Extents from 1 up to a few pixels past the dilated kernel,
        // so maps smaller than the window are common.
        const int h = 1 + static_cast<int>(rng.below(eff_k + 4));
        const int w = 1 + static_cast<int>(rng.below(eff_k + 6));
        const int filters = 1 + static_cast<int>(rng.below(3));
        // Mostly moderate magnitudes (outputs fit int32); every fourth
        // trial uses the full ranges to reach the overflow edge.
        const bool full = trial % 4 == 3;
        const TensorI16 imap = randomMap<std::int16_t>(
            rng, channels, h, w, full ? 32767 : 2000);
        const TensorI32 delta = randomMap<std::int32_t>(
            rng, channels, h, w, full ? 65535 : 4000);
        const FilterBankI16 bank =
            randomBank(rng, filters, channels, k, full ? 32767 : 300);

        std::ostringstream where;
        where << "trial " << trial << ": c=" << channels << " h=" << h
              << " w=" << w << " k=" << k << " stride=" << stride
              << " dilation=" << dilation << " filters=" << filters;
        SCOPED_TRACE(where.str());

        const auto ref = naiveConv(imap, bank, stride, dilation);
        EXPECT_EQ(runPath([&] {
                      return convolveDirect(imap, bank, stride, dilation);
                  }),
                  ref);
        EXPECT_EQ(runPath([&] {
                      return convolveDifferential(imap, bank, stride,
                                                  dilation);
                  }),
                  ref);
        EXPECT_EQ(runPath([&] {
                      return convolveDifferentialY(imap, bank, stride,
                                                   dilation);
                  }),
                  ref);
        const auto refDelta = naiveConv(delta, bank, stride, dilation);
        EXPECT_EQ(runPath([&] {
                      return convolveTemporalDelta(delta, bank, stride,
                                                   dilation);
                  }),
                  refDelta);
        compared += ref.has_value() + refDelta.has_value();
        overflowed += !ref + !refDelta;
    }
    // The sweep must exercise both sides of the contract.
    EXPECT_GT(compared, 200);
    if (channels > 1) {
        EXPECT_GT(overflowed, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Channels, ConvProperty,
                         ::testing::Values(1, 15, 64));

TEST(ConvEdge, PartialSumsBeyondInt32StayExact)
{
    // Channels signed +,+,+,-,- against all-32767 taps: the running
    // sum passes 3.2e9 (6.4e9 for full 17-bit deltas) before the last
    // two channels bring it back to one product's worth.
    const int sign[] = {1, 1, 1, -1, -1};
    TensorI16 imap(5, 2, 3);
    TensorI32 delta(5, 2, 3);
    for (int c = 0; c < 5; ++c) {
        for (int y = 0; y < 2; ++y) {
            for (int x = 0; x < 3; ++x) {
                imap.at(c, y, x) = static_cast<std::int16_t>(sign[c] * 32767);
                delta.at(c, y, x) = sign[c] * 65535;
            }
        }
    }
    const FilterBankI16 bank(1, 5, 1, 1, 32767);
    EXPECT_EQ(convolveDirect(imap, bank, 1, 1),
              TensorI32(1, 2, 3, 32767 * 32767));
    EXPECT_EQ(convolveTemporalDelta(delta, bank, 1, 1),
              TensorI32(1, 2, 3, 65535 * 32767));
}

TEST(ConvEdge, DeltasWiderThanSeventeenBitsStayExact)
{
    // A 100000 * 32767 product does not fit int32; the wider inputs
    // must not wrap on the way to the in-range output.
    TensorI32 delta(3, 1, 2);
    FilterBankI16 bank(1, 3, 1, 1);
    const std::int32_t values[] = {100000, -100000, -100000};
    const std::int16_t taps[] = {32767, 10000, 10000};
    for (int c = 0; c < 3; ++c) {
        delta.at(c, 0, 0) = delta.at(c, 0, 1) = values[c];
        bank.at(0, c, 0, 0) = taps[c];
    }
    EXPECT_EQ(convolveTemporalDelta(delta, bank, 1, 1),
              TensorI32(1, 1, 2, 1276700000));
    EXPECT_EQ(convolveTemporalDelta(delta, bank, 2, 1),
              TensorI32(1, 1, 1, 1276700000));
}

TEST(ConvEdge, AllZeroDeltaConvolvesToZero)
{
    const TensorI32 delta(15, 9, 7);
    Rng rng(5);
    const FilterBankI16 bank = randomBank(rng, 4, 15, 3, 300);
    EXPECT_EQ(convolveTemporalDelta(delta, bank, 1, 2),
              TensorI32(4, 9, 7));
}

/**
 * Input of the 1x1, 4-channel edge layer: three @p sign * 32767
 * values and a remainder @p sign * @p last, so with edgeBank() the
 * single output is @p sign * (INT32_MAX - 1 + @p last).
 */
template <typename T>
Tensor3<T>
edgeInput(std::int32_t sign, std::int32_t last)
{
    Tensor3<T> t(4, 1, 1);
    t.at(0, 0, 0) = static_cast<T>(sign * 32767);
    t.at(1, 0, 0) = static_cast<T>(sign * 32767);
    t.at(2, 0, 0) = static_cast<T>(sign * 32767);
    t.at(3, 0, 0) = static_cast<T>(sign * last);
    return t;
}

FilterBankI16
edgeBank()
{
    // 2 * 32767^2 + 4 * 32767 + 1 == INT32_MAX.
    FilterBankI16 bank(1, 4, 1, 1);
    bank.at(0, 0, 0, 0) = 32767;
    bank.at(0, 1, 0, 0) = 32767;
    bank.at(0, 2, 0, 0) = 4;
    bank.at(0, 3, 0, 0) = 1;
    return bank;
}

TEST(ConvEdge, ClampEdgeThrowsOnDirectAndTemporalPaths)
{
    constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
    constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
    const FilterBankI16 bank = edgeBank();

    // Exactly at the limits: representable, no throw.
    EXPECT_EQ(convolveDirect(edgeInput<std::int16_t>(1, 1), bank, 1, 1)
                  .at(0, 0, 0),
              kMax);
    EXPECT_EQ(convolveTemporalDelta(edgeInput<std::int32_t>(1, 1), bank,
                                    1, 1)
                  .at(0, 0, 0),
              kMax);
    EXPECT_EQ(convolveDirect(edgeInput<std::int16_t>(-1, 2), bank, 1, 1)
                  .at(0, 0, 0),
              kMin);
    EXPECT_EQ(convolveTemporalDelta(edgeInput<std::int32_t>(-1, 2), bank,
                                    1, 1)
                  .at(0, 0, 0),
              kMin);

    // One past either limit: a hard error on both paths.
    EXPECT_THROW(convolveDirect(edgeInput<std::int16_t>(1, 2), bank, 1, 1),
                 std::overflow_error);
    EXPECT_THROW(convolveTemporalDelta(edgeInput<std::int32_t>(1, 2), bank,
                                       1, 1),
                 std::overflow_error);
    EXPECT_THROW(convolveDirect(edgeInput<std::int16_t>(-1, 3), bank, 1, 1),
                 std::overflow_error);
    EXPECT_THROW(convolveTemporalDelta(edgeInput<std::int32_t>(-1, 3),
                                       bank, 1, 1),
                 std::overflow_error);
}

/**
 * Float gather oracle: each output starts at +0 and adds, in
 * (c, ky, kx) order, the products of its nonzero in-bounds taps only,
 * so every padding tap and zero weight the blocked kernel adds is
 * absent here.
 */
Tensor3<float>
naiveConvFloat(const Tensor3<float> &input, const Tensor4<float> &bank,
               int stride, int dilation)
{
    const int k = bank.height();
    const int eff_k = dilation * (k - 1) + 1;
    const int pad = (eff_k - 1) / 2;
    const int out_h = (input.height() + 2 * pad - eff_k) / stride + 1;
    const int out_w = (input.width() + 2 * pad - eff_k) / stride + 1;
    Tensor3<float> out(bank.filters(), out_h, out_w);
    for (int f = 0; f < bank.filters(); ++f) {
        for (int oy = 0; oy < out_h; ++oy) {
            for (int ox = 0; ox < out_w; ++ox) {
                float acc = 0.0f;
                for (int c = 0; c < input.channels(); ++c) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy * stride + ky * dilation - pad;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix =
                                ox * stride + kx * dilation - pad;
                            const float w = bank.at(f, c, ky, kx);
                            if (iy < 0 || iy >= input.height() || ix < 0 ||
                                ix >= input.width() || w == 0.0f)
                                continue;
                            acc += w * input.at(c, iy, ix);
                        }
                    }
                }
                out.at(f, oy, ox) = acc;
            }
        }
    }
    return out;
}

/**
 * One float value: a small dyadic (exact, so partial sums cancel to
 * exactly zero mid-reduction), a zero of either sign, or a generic
 * float.
 */
float
drawFloat(Rng &rng, bool dyadic)
{
    switch (rng.below(8)) {
      case 0:
        return 0.0f;
      case 1:
        return -0.0f;
      default:
        if (dyadic)
            return static_cast<float>(draw(rng, 16)) * 0.125f;
        return static_cast<float>(rng.uniform(-2.0, 2.0));
    }
}

bool
sameBits(const Tensor3<float> &a, const Tensor3<float> &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class ConvFloatProperty : public ::testing::TestWithParam<int>
{};

TEST_P(ConvFloatProperty, BlockedKernelIsBitIdenticalToTheGather)
{
    const int channels = GetParam();
    Rng rng(0xF10A7 + static_cast<std::uint64_t>(channels));
    const int kernels[] = {1, 3, 5, 7};
    const int filter_counts[] = {1, 3, 5, 64};
    for (int trial = 0; trial < 96; ++trial) {
        const int k = kernels[rng.below(4)];
        const int stride = 1 + static_cast<int>(rng.below(3));
        const int dilation = 1 + static_cast<int>(rng.below(4));
        const int eff_k = dilation * (k - 1) + 1;
        const int filters = filter_counts[trial % 4];
        // Heights from 1 past the dilated kernel; widths from 1 to
        // about three column blocks, so narrow maps and every
        // partial-block remainder occur.
        const int h = 1 + static_cast<int>(rng.below(eff_k + 4));
        const int w = 1 + static_cast<int>(rng.below(24 * stride + 2));
        const bool dyadic = trial % 2 == 0;
        Tensor3<float> input(channels, h, w);
        for (std::size_t i = 0; i < input.size(); ++i)
            input.data()[i] = drawFloat(rng, dyadic);
        // Sparse banks: a third of the trials zero whole taps across
        // every filter, the rest zero single weights (drawFloat).
        Tensor4<float> bank(filters, channels, k, k);
        const bool dead_taps = trial % 3 == 0;
        for (int c = 0; c < channels; ++c) {
            for (int ky = 0; ky < k; ++ky) {
                for (int kx = 0; kx < k; ++kx) {
                    const bool dead = dead_taps && rng.below(2) == 0;
                    for (int f = 0; f < filters; ++f) {
                        bank.at(f, c, ky, kx) =
                            dead ? 0.0f : drawFloat(rng, dyadic);
                    }
                }
            }
        }

        std::ostringstream where;
        where << "trial " << trial << ": c=" << channels << " h=" << h
              << " w=" << w << " k=" << k << " stride=" << stride
              << " dilation=" << dilation << " filters=" << filters;
        SCOPED_TRACE(where.str());
        EXPECT_TRUE(sameBits(convolve(input, bank, stride, dilation),
                             naiveConvFloat(input, bank, stride,
                                            dilation)));
    }
}

INSTANTIATE_TEST_SUITE_P(Channels, ConvFloatProperty,
                         ::testing::Values(1, 15, 64));

TEST(ConvFloatEdge, AllZeroBankGivesPositiveZeros)
{
    // Negative inputs against -0 weights: every product is +-0, and
    // the sums must still be +0, not -0.
    Tensor3<float> input(3, 5, 11, -1.5f);
    const Tensor4<float> bank(5, 3, 3, 3, -0.0f);
    EXPECT_TRUE(sameBits(convolve(input, bank, 1, 1),
                         Tensor3<float>(5, 5, 11, 0.0f)));
}

} // namespace
} // namespace diffy
