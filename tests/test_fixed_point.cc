/**
 * @file
 * Tests for the 16-bit fixed-point helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/fixed_point.hh"
#include "common/rng.hh"

namespace diffy
{
namespace
{

TEST(Saturate16, ClampsToInt16Range)
{
    EXPECT_EQ(saturate16(0), 0);
    EXPECT_EQ(saturate16(32767), 32767);
    EXPECT_EQ(saturate16(32768), 32767);
    EXPECT_EQ(saturate16(-32768), -32768);
    EXPECT_EQ(saturate16(-32769), -32768);
    EXPECT_EQ(saturate16(1'000'000), 32767);
    EXPECT_EQ(saturate16(-1'000'000), -32768);
}

TEST(Quantize16, RoundTripsWithinStep)
{
    Rng rng(5);
    for (int frac = 0; frac <= 14; frac += 2) {
        double step = std::pow(2.0, -frac);
        for (int i = 0; i < 200; ++i) {
            double v = rng.uniform(-1.0, 1.0);
            std::int16_t q = quantize16(v, frac);
            double back = dequantize16(q, frac);
            EXPECT_NEAR(back, v, step * 0.5 + 1e-12)
                << "frac=" << frac << " v=" << v;
        }
    }
}

TEST(Quantize16, SaturatesOutOfRange)
{
    EXPECT_EQ(quantize16(10.0, 14), 32767);
    EXPECT_EQ(quantize16(-10.0, 14), -32768);
    // Past llround's int64 range too.
    EXPECT_EQ(quantize16(1e19, 0), 32767);
    EXPECT_EQ(quantize16(-1e19, 0), -32768);
}

TEST(ChooseFracBits, LeavesHeadroom)
{
    Rng rng(6);
    for (int i = 0; i < 500; ++i) {
        double max_abs = rng.uniform(1e-3, 100.0);
        int frac = chooseFracBits(max_abs);
        ASSERT_GE(frac, 0);
        ASSERT_LE(frac, 14);
        // The maximum magnitude must be representable at that scale.
        double scaled = max_abs * std::pow(2.0, frac);
        EXPECT_LE(scaled, 32768.0) << max_abs;
    }
}

TEST(ChooseFracBits, DegenerateZeroTensorGetsMaxPrecision)
{
    EXPECT_EQ(chooseFracBits(0.0), 14);
    EXPECT_EQ(chooseFracBits(-1.0), 14);
}

TEST(QuantizeBuffer, QuantizesEveryElement)
{
    std::vector<double> v = {0.0, 0.5, -0.5, 0.25};
    auto q = quantizeBuffer(v, 8);
    ASSERT_EQ(q.size(), v.size());
    EXPECT_EQ(q[0], 0);
    EXPECT_EQ(q[1], 128);
    EXPECT_EQ(q[2], -128);
    EXPECT_EQ(q[3], 64);
}

TEST(RoundSaturate16, MatchesLlroundThenSaturate)
{
    // The inline rounding of the quantization loop against the
    // expression it replaced, on float * 2^frac products as
    // quantizeTensor forms them: exact halves and their float
    // neighbours at every scale, values past either int16 end and past
    // the +-40000 clamp (up to 2^62, where llround is still defined),
    // and random activations.
    Rng rng(16);
    std::vector<float> values = {0.0f, -0.0f, 1e-30f, -1e-30f, 3e9f,
                                 -3e9f, 2.8e14f, -2.8e14f};
    for (int n = -70000; n <= 70000; n += 7) {
        const float half = static_cast<float>(n) + 0.5f;
        values.push_back(half);
        values.push_back(std::nextafter(half, 0.0f));
        values.push_back(std::nextafter(half, 2.0f * half));
    }
    for (int i = 0; i < 20000; ++i)
        values.push_back(static_cast<float>(rng.uniform(-40.0, 40.0)));
    int mismatches = 0;
    for (int frac = 0; frac <= 14; ++frac) {
        const double scale = static_cast<double>(std::int64_t{1} << frac);
        for (const float base : values) {
            // base as the scaled value (its halves stay halves) and as
            // the activation itself.
            for (const float f :
                 {static_cast<float>(base / scale), base}) {
                const double v = f * scale;
                const std::int16_t want = saturate16(
                    static_cast<std::int64_t>(std::llround(v)));
                if (roundSaturate16(v) != want) {
                    ++mismatches;
                    ADD_FAILURE() << "frac=" << frac << " v=" << v;
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0);
}

} // namespace
} // namespace diffy
