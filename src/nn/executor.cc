#include "nn/executor.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/cache_registry.hh"
#include "common/fixed_point.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace diffy
{

namespace
{

/** Output columns per register block. */
constexpr int kBlockW = 8;
/** Filters per register block. */
constexpr int kBlockF = 4;
/** Float lanes in one Lanes vector (a 128-bit register). */
constexpr int kLanes = 4;
/** Lanes vectors per filter row of a block. */
constexpr int kVecs = kBlockW / kLanes;

/** kLanes floats in one register (GCC vector extension). */
typedef float Lanes __attribute__((vector_size(kLanes * sizeof(float))));
static_assert(kBlockW % kLanes == 0 && kLanes == 4);

// Whole-vector memcpy loads and stores let the accumulators live in
// registers; a memcpy of a Lanes array keeps them in memory.
Lanes
loadLanes(const float *p)
{
    Lanes v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void
storeLanes(float *p, Lanes v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * One block of kBlockF filters over every output row of @p out: per
 * kBlockW output columns, the block's kBlockF x kBlockW accumulators
 * stay in registers through the whole reduction and are stored once.
 * The @p taps entries of @p tapOffset / @p tapWeight hold, in
 * (c, ky, kx) order, each tap's offset into the padded plane and its
 * kBlockF weights (zero past the last real filter). kUnit selects the
 * contiguous (stride 1) input load.
 */
template <bool kUnit>
void
convFilterBlock(const float *padded, int paddedW, int stride,
                const std::ptrdiff_t *tapOffset, const float *tapWeight,
                std::size_t taps, float *out, int filters, int out_h,
                int out_w)
{
    const std::size_t plane = static_cast<std::size_t>(out_h) * out_w;
    for (int oy = 0; oy < out_h; ++oy) {
        const float *row = padded +
                           static_cast<std::size_t>(oy) * stride * paddedW;
        for (int ox = 0; ox < out_w; ox += kBlockW) {
            const float *in = row + static_cast<std::size_t>(ox) * stride;
            Lanes acc[kBlockF][kVecs] = {};
            for (std::size_t t = 0; t < taps; ++t) {
                const float *p = in + tapOffset[t];
                Lanes x[kVecs];
                if constexpr (kUnit) {
                    for (int v = 0; v < kVecs; ++v)
                        x[v] = loadLanes(p + v * kLanes);
                } else {
                    for (int v = 0; v < kVecs; ++v) {
                        const float *q = p + v * kLanes * stride;
                        x[v] = Lanes{q[0], q[stride], q[2 * stride],
                                     q[3 * stride]};
                    }
                }
                const float *w = tapWeight + t * kBlockF;
                for (int f = 0; f < kBlockF; ++f) {
                    for (int v = 0; v < kVecs; ++v)
                        acc[f][v] += w[f] * x[v];
                }
            }
            // A partial column block goes through a row buffer; a
            // partial filter block stores only its real filters.
            const int cols = std::min(kBlockW, out_w - ox);
            float *dst = out + static_cast<std::size_t>(oy) * out_w + ox;
            for (int f = 0; f < filters; ++f, dst += plane) {
                float buf[kBlockW];
                float *to = cols == kBlockW ? dst : buf;
                for (int v = 0; v < kVecs; ++v)
                    storeLanes(to + v * kLanes, acc[f][v]);
                if (to == buf)
                    std::copy(buf, buf + cols, dst);
            }
        }
    }
}

} // namespace

/*
 * Register-blocked direct convolution. The input is copied once into
 * a zero-padded plane wide enough for every column block, so the
 * reduction has no boundary branch; each block of kBlockF filters x
 * kBlockW output columns keeps its accumulators in registers through
 * the whole (c, ky, kx) reduction.
 *
 * Bit identity with the per-tap gather (and with the earlier
 * axpy-per-tap kernel): every output still starts at +0 and adds its
 * products in (c, ky, kx) order. What the blocked loop adds on top are
 * padding taps (w * 0) and zero weights (0 * x); for finite inputs
 * both products are +0 or -0. Under round-to-nearest a sum is -0 only
 * when both addends are -0, so an accumulator that starts at +0 is
 * never -0, and adding +-0 to it returns it unchanged. The extra terms
 * therefore change no bit. Non-finite inputs are outside the contract
 * (0 * inf is NaN where the gather would have skipped the tap).
 */
Tensor3<float>
convolve(const Tensor3<float> &input, const Tensor4<float> &weights,
         int stride, int dilation)
{
    const int in_c = input.channels();
    const int in_h = input.height();
    const int in_w = input.width();
    const int k = weights.height();
    if (weights.channels() != in_c)
        throw std::invalid_argument("convolve: channel mismatch");
    const ConvGeometry g(in_h, in_w, k, stride, dilation);
    const int filters = weights.filters();
    Tensor3<float> out(filters, g.outH, g.outW, scratchAlloc<float>());
    if (out.size() == 0)
        return out;

    // Zero-padded copy of the input: plane (x, y) holds input
    // (x - pad, y - pad), and it reaches every column a full last
    // block reads.
    const int blocks_w = (g.outW + kBlockW - 1) / kBlockW;
    const int pad_w = (blocks_w * kBlockW - 1) * stride + g.effK;
    const int pad_h = (g.outH - 1) * stride + g.effK;
    Tensor3<float> padded(in_c, pad_h, pad_w, scratchAlloc<float>(), 0.0f);
    const int copy_h = std::min(in_h, pad_h - g.pad);
    const int copy_w = std::min(in_w, pad_w - g.pad);
    for (int c = 0; c < in_c; ++c) {
        for (int y = 0; y < copy_h; ++y) {
            const float *src =
                input.data() + (static_cast<std::size_t>(c) * in_h + y) *
                                   in_w;
            float *dst = padded.data() +
                         (static_cast<std::size_t>(c) * pad_h + y + g.pad) *
                             pad_w +
                         g.pad;
            std::copy(src, src + copy_w, dst);
        }
    }

    const std::size_t taps_max = static_cast<std::size_t>(in_c) * k * k;
    AlignedVec<std::ptrdiff_t> tap_offset(taps_max,
                                          scratchAlloc<std::ptrdiff_t>());
    AlignedVec<float> tap_weight(taps_max * kBlockF, scratchAlloc<float>());
    for (int f0 = 0; f0 < filters; f0 += kBlockF) {
        const int nf = std::min(kBlockF, filters - f0);
        // The block's taps in (c, ky, kx) order; a tap zero in every
        // filter of the block adds nothing and is dropped.
        std::size_t taps = 0;
        for (int c = 0; c < in_c; ++c) {
            for (int ky = 0; ky < k; ++ky) {
                for (int kx = 0; kx < k; ++kx) {
                    float *w = &tap_weight[taps * kBlockF];
                    bool live = false;
                    for (int f = 0; f < kBlockF; ++f) {
                        w[f] = f < nf ? weights.at(f0 + f, c, ky, kx)
                                      : 0.0f;
                        live |= w[f] != 0.0f;
                    }
                    if (!live)
                        continue;
                    tap_offset[taps++] =
                        (static_cast<std::ptrdiff_t>(c) * pad_h +
                         ky * dilation) *
                            pad_w +
                        kx * dilation;
                }
            }
        }
        float *dst = out.data() +
                     static_cast<std::size_t>(f0) * g.outH * g.outW;
        if (stride == 1)
            convFilterBlock<true>(padded.data(), pad_w, stride,
                                  tap_offset.data(), tap_weight.data(),
                                  taps, dst, nf, g.outH, g.outW);
        else
            convFilterBlock<false>(padded.data(), pad_w, stride,
                                   tap_offset.data(), tap_weight.data(),
                                   taps, dst, nf, g.outH, g.outW);
    }
    return out;
}

Tensor3<float>
maxPool(const Tensor3<float> &input, int factor)
{
    const int c = input.channels();
    const int out_h = input.height() / factor;
    const int out_w = input.width() / factor;
    Tensor3<float> out(c, out_h, out_w, scratchAlloc<float>());
    for (int ch = 0; ch < c; ++ch) {
        for (int y = 0; y < out_h; ++y) {
            for (int x = 0; x < out_w; ++x) {
                float best = input.at(ch, y * factor, x * factor);
                for (int dy = 0; dy < factor; ++dy) {
                    for (int dx = 0; dx < factor; ++dx) {
                        float v =
                            input.at(ch, y * factor + dy, x * factor + dx);
                        if (v > best)
                            best = v;
                    }
                }
                out.at(ch, y, x) = best;
            }
        }
    }
    return out;
}

Tensor3<float>
pixelShuffle(const Tensor3<float> &input, int factor)
{
    const int r2 = factor * factor;
    if (input.channels() % r2 != 0)
        throw std::invalid_argument("pixelShuffle: channels % r^2 != 0");
    const int out_c = input.channels() / r2;
    const int out_h = input.height() * factor;
    const int out_w = input.width() * factor;
    Tensor3<float> out(out_c, out_h, out_w, scratchAlloc<float>());
    for (int c = 0; c < out_c; ++c) {
        for (int y = 0; y < out_h; ++y) {
            for (int x = 0; x < out_w; ++x) {
                int sub = (y % factor) * factor + (x % factor);
                out.at(c, y, x) =
                    input.at(c * r2 + sub, y / factor, x / factor);
            }
        }
    }
    return out;
}

namespace
{

/** Luminance plane of an RGB image. */
Tensor3<float>
luminance(const Tensor3<float> &rgb)
{
    Tensor3<float> out(1, rgb.height(), rgb.width(),
                       scratchAlloc<float>());
    for (int y = 0; y < rgb.height(); ++y) {
        for (int x = 0; x < rgb.width(); ++x) {
            out.at(0, y, x) = 0.299f * rgb.at(0, y, x) +
                              0.587f * rgb.at(1, y, x) +
                              0.114f * rgb.at(2, y, x);
        }
    }
    return out;
}

/** RGGB Bayer mosaic packed 2x2 into 4 half-resolution channels. */
Tensor3<float>
bayerPack(const Tensor3<float> &rgb)
{
    const int h2 = rgb.height() / 2;
    const int w2 = rgb.width() / 2;
    Tensor3<float> out(4, h2, w2, scratchAlloc<float>());
    for (int y = 0; y < h2; ++y) {
        for (int x = 0; x < w2; ++x) {
            out.at(0, y, x) = rgb.at(0, 2 * y, 2 * x);         // R
            out.at(1, y, x) = rgb.at(1, 2 * y, 2 * x + 1);     // G
            out.at(2, y, x) = rgb.at(1, 2 * y + 1, 2 * x);     // G
            out.at(3, y, x) = rgb.at(2, 2 * y + 1, 2 * x + 1); // B
        }
    }
    return out;
}

/** 2x2 pixel-unshuffle of all channels plus noise-sigma planes. */
Tensor3<float>
ffdnetPack(const Tensor3<float> &rgb)
{
    const int h2 = rgb.height() / 2;
    const int w2 = rgb.width() / 2;
    Tensor3<float> out(15, h2, w2, scratchAlloc<float>());
    for (int c = 0; c < 3; ++c) {
        for (int y = 0; y < h2; ++y) {
            for (int x = 0; x < w2; ++x) {
                out.at(c * 4 + 0, y, x) = rgb.at(c, 2 * y, 2 * x);
                out.at(c * 4 + 1, y, x) = rgb.at(c, 2 * y, 2 * x + 1);
                out.at(c * 4 + 2, y, x) = rgb.at(c, 2 * y + 1, 2 * x);
                out.at(c * 4 + 3, y, x) = rgb.at(c, 2 * y + 1, 2 * x + 1);
            }
        }
    }
    // Per-color noise standard deviation planes (constant).
    const float sigmas[3] = {0.0941f, 0.0941f, 0.0941f};
    for (int c = 0; c < 3; ++c) {
        for (int y = 0; y < h2; ++y) {
            for (int x = 0; x < w2; ++x)
                out.at(12 + c, y, x) = sigmas[c];
        }
    }
    return out;
}

/**
 * Resample / channel-adapt @p t to the expected next-layer input.
 * Downsampling uses max pooling (classification backbones);
 * upsampling uses pixel shuffle (JointNet's full-resolution head).
 */
Tensor3<float>
adaptToLayer(Tensor3<float> t, int cur_divisor, const ConvLayerSpec &next)
{
    if (next.resolutionDivisor > cur_divisor) {
        int factor = next.resolutionDivisor / cur_divisor;
        t = maxPool(t, factor);
    } else if (next.resolutionDivisor < cur_divisor) {
        int factor = cur_divisor / next.resolutionDivisor;
        int r2 = factor * factor;
        // Shuffle as many channel groups as divide evenly; any
        // remainder is handled by the channel adapter below.
        int usable = (t.channels() / r2) * r2;
        if (usable > 0) {
            Tensor3<float> head(usable, t.height(), t.width(),
                                scratchAlloc<float>());
            for (int c = 0; c < usable; ++c) {
                for (int y = 0; y < t.height(); ++y) {
                    for (int x = 0; x < t.width(); ++x)
                        head.at(c, y, x) = t.at(c, y, x);
                }
            }
            t = pixelShuffle(head, factor);
        }
    }
    if (t.channels() != next.inChannels) {
        // Structural adapter for concatenation-style inputs (e.g.
        // JointNet appends mosaic channels after the pixel shuffle):
        // replicate existing channels with decaying gain, or truncate.
        Tensor3<float> adapted(next.inChannels, t.height(), t.width(),
                               scratchAlloc<float>());
        for (int c = 0; c < next.inChannels; ++c) {
            int src = c % t.channels();
            float gain = c < t.channels() ? 1.0f : 0.7f;
            for (int y = 0; y < t.height(); ++y) {
                for (int x = 0; x < t.width(); ++x)
                    adapted.at(c, y, x) = gain * t.at(src, y, x);
            }
        }
        t = std::move(adapted);
    }
    return t;
}

/**
 * Quantize a float tensor to int16. The scale is the coarsest
 * power-of-two step whose relative RMS quantization error stays below
 * @p rel_error (capped by the range-driven maximum from
 * chooseFracBits), so activations carry only the significant bits a
 * quality-profiled fixed-point deployment would keep.
 */
TensorI16
quantizeTensor(const Tensor3<float> &t, double rel_error,
               int *frac_bits_out)
{
    float max_abs = 0.0f;
    double sum_sq = 0.0;
    const float *data = t.data();
    for (std::size_t i = 0; i < t.size(); ++i) {
        float a = std::fabs(data[i]);
        if (a > max_abs)
            max_abs = a;
        sum_sq += static_cast<double>(data[i]) * data[i];
    }
    int frac = chooseFracBits(max_abs);
    const double rms =
        t.size() ? std::sqrt(sum_sq / static_cast<double>(t.size())) : 0.0;
    if (rms > 0.0 && rel_error > 0.0) {
        // Uniform quantization with step q has RMS error q/sqrt(12);
        // the coarsest acceptable step solves q = rel*rms*sqrt(12).
        const double q = rel_error * rms * std::sqrt(12.0);
        const int frac_quality =
            static_cast<int>(std::ceil(-std::log2(q)));
        if (frac_quality < frac)
            frac = frac_quality < 0 ? 0 : frac_quality;
    }
    TensorI16 out(t.shape(), scratchAlloc<std::int16_t>());
    std::int16_t *od = out.data();
    const double scale = static_cast<double>(std::int64_t{1} << frac);
    for (std::size_t i = 0; i < t.size(); ++i) {
        od[i] = roundSaturate16(data[i] * scale);
    }
    if (frac_bits_out)
        *frac_bits_out = frac;
    return out;
}

/**
 * Synthesized weights of one layer, in both the quantized form the
 * trace carries and the dequantized float form the forward pass
 * consumes.
 */
struct PreparedWeights
{
    FilterBankI16 quantized;
    int fracBits = 0;
    Tensor4<float> dequantized;
};

// thread_local keeps sweep workers lock-free (same idiom as the
// sim/encode memo caches); cleared through the central registry
// (DESIGN.md §10, rule R2).
std::unordered_map<std::string, PreparedWeights> &
preparedWeightsCache()
{
    thread_local std::unordered_map<std::string, PreparedWeights> cache;
    return cache;
}

/**
 * Memoized weight synthesis + dequantization. Weight generation is a
 * pure function of (network, layer, options), and sweeps replay the
 * same network over many scenes — so the per-frame gaussian synthesis
 * and the float rebuild were pure waste.
 */
const PreparedWeights &
preparedWeights(const NetworkSpec &net, const ConvLayerSpec &layer,
                const ExecutorOptions &opts)
{
    auto &cache = preparedWeightsCache();
    // Tests build ad-hoc specs that reuse names with different shapes,
    // so the key covers every input synthesizeWeights() reads.
    std::string key = net.name + '/' + layer.name + '#' +
                      std::to_string(layer.inChannels) + 'x' +
                      std::to_string(layer.outChannels) + 'k' +
                      std::to_string(layer.kernel) + '@' +
                      std::to_string(opts.weightSeed) + '/' +
                      std::to_string(opts.sparsitySeed) + '/' +
                      std::to_string(opts.weightSparsity);
    auto it = cache.find(key);
    if (it == cache.end()) {
        PreparedWeights pw;
        pw.quantized = synthesizeWeights(net, layer, opts, &pw.fracBits);
        const auto &shape = pw.quantized.shape();
        pw.dequantized =
            Tensor4<float>(shape.k, shape.c, shape.h, shape.w);
        const double wscale =
            static_cast<double>(std::int64_t{1} << pw.fracBits);
        for (std::size_t i = 0; i < pw.quantized.size(); ++i) {
            pw.dequantized.data()[i] =
                static_cast<float>(pw.quantized.data()[i] / wscale);
        }
        it = cache.emplace(std::move(key), std::move(pw)).first;
    }
    return it->second;
}

} // namespace

void
clearPreparedWeightsCache()
{
    preparedWeightsCache().clear();
}

DIFFY_REGISTER_THREAD_CACHE(nn_executor_prepared_weights,
                            clearPreparedWeightsCache);

Tensor3<float>
buildNetworkInput(const NetworkSpec &net, const Tensor3<float> &rgb)
{
    if (rgb.channels() != 3)
        throw std::invalid_argument("buildNetworkInput expects RGB");
    if (net.name == "VDSR")
        return luminance(rgb);
    if (net.name == "FFDNet")
        return ffdnetPack(rgb);
    if (net.name == "JointNet")
        return bayerPack(rgb);
    // Identity nets still copy: the running activation is a per-frame
    // transient, so the copy lands on the ambient scratch resource.
    return Tensor3<float>(rgb, scratchAlloc<float>());
}

FilterBankI16
synthesizeWeights(const NetworkSpec &net, const ConvLayerSpec &layer,
                  const ExecutorOptions &opts, int *frac_bits_out)
{
    Rng rng(opts.weightSeed ^
            Rng::seedFromString(net.name + "/" + layer.name));
    const double fan_in =
        static_cast<double>(layer.inChannels) * layer.kernel * layer.kernel;
    const double stddev = std::sqrt(2.0 / fan_in);

    Tensor4<float> wf(layer.outChannels, layer.inChannels, layer.kernel,
                      layer.kernel);
    float max_abs = 0.0f;
    for (std::size_t i = 0; i < wf.size(); ++i) {
        float v = static_cast<float>(rng.gaussian(0.0, stddev));
        wf.data()[i] = v;
        float a = std::fabs(v);
        if (a > max_abs)
            max_abs = a;
    }
    if (opts.weightSparsity > 0.0) {
        Rng mask_rng(opts.sparsitySeed ^
                     Rng::seedFromString(net.name + "/" + layer.name));
        for (std::size_t i = 0; i < wf.size(); ++i) {
            if (mask_rng.uniform() < opts.weightSparsity)
                wf.data()[i] = 0.0f;
        }
    }

    int frac = chooseFracBits(max_abs);
    FilterBankI16 out(wf.shape().k, wf.shape().c, wf.shape().h, wf.shape().w);
    const double scale = static_cast<double>(std::int64_t{1} << frac);
    for (std::size_t i = 0; i < wf.size(); ++i) {
        out.data()[i] = roundSaturate16(wf.data()[i] * scale);
    }
    if (frac_bits_out)
        *frac_bits_out = frac;
    return out;
}

NetworkTrace
runNetwork(const NetworkSpec &net, const Tensor3<float> &rgb,
           const ExecutorOptions &opts)
{
    NetworkTrace trace;
    trace.network = net.name;
    trace.netClass = net.netClass;
    trace.frameHeight = rgb.height();
    trace.frameWidth = rgb.width();
    trace.layers.reserve(net.layers.size());

    Tensor3<float> activ = buildNetworkInput(net, rgb);
    int cur_divisor = net.layers.empty()
                          ? 1
                          : net.layers.front().resolutionDivisor;

    for (std::size_t li = 0; li < net.layers.size(); ++li) {
        const ConvLayerSpec &layer = net.layers[li];
        // Per-layer observability: a trace span and a latency histogram
        // keyed by net/layer for --metrics-out cost attribution. Each
        // skips its name build (and the registry lookup) when off.
        obs::Span span(obs::traceEnabled()
                           ? "layer:" + net.name + "/" + layer.name
                           : std::string());
        obs::ScopedLatency timer(
            obs::MetricsRegistry::enabled()
                ? &obs::MetricsRegistry::instance().histogram(
                      "nn.layer_seconds:" + net.name + "/" + layer.name)
                : nullptr);
        // Bring the running activation to this layer's resolution and
        // channel count (pooling / pixel shuffle between stages).
        activ = adaptToLayer(std::move(activ), cur_divisor, layer);
        cur_divisor = layer.resolutionDivisor;

        // Weight synthesis and dequantization are hoisted into a
        // per-(net, layer, options) memo: scene sweeps rebuild the
        // same banks for every frame otherwise.
        const PreparedWeights &pw = preparedWeights(net, layer, opts);

        LayerTrace lt;
        lt.spec = layer;
        // Allocator-extended copy: the memoized bank stays heap-owned
        // while the per-frame trace copy rides the scratch resource.
        lt.weights = FilterBankI16(pw.quantized,
                                   scratchAlloc<std::int16_t>());
        lt.weightFracBits = pw.fracBits;
        lt.imap = quantizeTensor(activ, opts.activationRelError,
                                 &lt.imapFracBits);

        trace.layers.push_back(std::move(lt));
        // The last layer's output feeds nothing: the trace ends at
        // that layer's input.
        if (li + 1 == net.layers.size())
            break;

        // Float forward for the next layer's input.
        Tensor3<float> out = convolve(activ, pw.dequantized, layer.stride,
                                      layer.dilation);
        if (layer.relu) {
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (out.data()[i] < 0.0f)
                    out.data()[i] = 0.0f;
            }
        }
        // Strided layers shrink the resolution for everything after.
        cur_divisor *= layer.stride;
        activ = std::move(out);
    }
    return trace;
}

} // namespace diffy
