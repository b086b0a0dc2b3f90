/**
 * @file
 * 16-bit fixed-point helpers.
 *
 * All accelerators modeled in this repository (VAA, PRA, Diffy, SCNN)
 * operate on 16-bit fixed-point activations and weights, matching the
 * paper's Table IV configurations. Scales are expressed as a number of
 * fractional bits so that quantization is a pure shift and all
 * arithmetic stays in integers.
 */

#ifndef DIFFY_COMMON_FIXED_POINT_HH
#define DIFFY_COMMON_FIXED_POINT_HH

#include <cstdint>
#include <vector>

namespace diffy
{

/** Saturate @p v to the int16 range. */
std::int16_t saturate16(std::int64_t v);

/**
 * Round @p v half away from zero and saturate to int16: the value of
 * saturate16(std::llround(v)) wherever llround is defined (|v| < 2^63),
 * saturated by sign beyond, inline and without a libm call, for the
 * per-activation quantization loop. NaN saturates to INT16_MIN.
 */
inline std::int16_t
roundSaturate16(double v)
{
    // Clamp first so the int conversion is defined; +-40000 is past
    // the int16 range on either side.
    v = v > -40000.0 ? v : -40000.0;
    v = v < 40000.0 ? v : 40000.0;
    int r = static_cast<int>(v); // toward zero
    const double rem = v - r;    // exact: |v| < 2^16
    r += static_cast<int>(rem >= 0.5) - static_cast<int>(rem <= -0.5);
    r = r < -32768 ? -32768 : (r > 32767 ? 32767 : r);
    return static_cast<std::int16_t>(r);
}

/** Quantize a real value to Q(15 - fracBits).fracBits with saturation. */
std::int16_t quantize16(double v, int frac_bits);

/** Reconstruct the real value of a fixed-point quantity. */
double dequantize16(std::int16_t v, int frac_bits);

/**
 * Pick the largest fractional-bit count such that @p max_abs is
 * representable in 16 bits. Used for per-layer rescaling in the
 * quantized executor.
 */
int chooseFracBits(double max_abs);

/** Quantize a whole buffer with one shared scale. */
std::vector<std::int16_t> quantizeBuffer(const std::vector<double> &v,
                                         int frac_bits);

} // namespace diffy

#endif // DIFFY_COMMON_FIXED_POINT_HH
