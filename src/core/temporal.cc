#include "core/temporal.hh"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "common/bitops.hh"
#include "core/differential_conv.hh"
#include "encode/temporal.hh"

namespace diffy
{

namespace
{

/**
 * Sum of per-value Booth term counts over a plane, counted through a
 * fixed stack buffer so the transient term plane is never allocated.
 */
template <typename T>
std::uint64_t
boothTermSum(const T *src, std::size_t n)
{
    std::array<std::uint8_t, 4096> terms{};
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; i += terms.size()) {
        const std::size_t chunk = std::min(terms.size(), n - i);
        boothTermsPlane(src + i, terms.data(), chunk);
        for (std::size_t j = 0; j < chunk; ++j)
            sum += terms[j];
    }
    return sum;
}

/**
 * X-axis deltas of an int32 map (row-leading values raw) — the
 * "both axes composed" encoding of the ablation. The int16 xDeltas()
 * in the tensor library cannot hold 17-bit temporal deltas.
 */
TensorI32
xDeltas32(const TensorI32 &t)
{
    TensorI32 out(t.shape(), scratchAlloc<std::int32_t>());
    for (int c = 0; c < t.channels(); ++c) {
        for (int y = 0; y < t.height(); ++y) {
            std::int32_t prev = 0;
            for (int x = 0; x < t.width(); ++x) {
                std::int32_t cur = t.at(c, y, x);
                out.at(c, y, x) = x == 0 ? cur : cur - prev;
                prev = cur;
            }
        }
    }
    return out;
}

} // namespace

TensorI32
convolveTemporalDelta(const TensorI32 &delta, const FilterBankI16 &bank,
                      int stride, int dilation)
{
    return convolveRowScatter(delta, bank, stride, dilation);
}

TensorI32
temporalDelta(const TensorI16 &prev, const TensorI16 &cur)
{
    if (prev.shape() != cur.shape())
        throw std::invalid_argument("temporalDelta: shape mismatch");
    TensorI32 out(cur.shape(), scratchAlloc<std::int32_t>());
    const std::int16_t *p = prev.data();
    const std::int16_t *c = cur.data();
    std::int32_t *d = out.data();
    for (std::size_t i = 0; i < out.size(); ++i)
        d[i] = static_cast<std::int32_t>(c[i]) -
               static_cast<std::int32_t>(p[i]);
    return out;
}

TemporalFrameStats &
TemporalFrameStats::operator+=(const TemporalFrameStats &o)
{
    layerCount += o.layerCount;
    anchored += o.anchored;
    exact = exact && o.exact;
    values += o.values;
    rawTerms += o.rawTerms;
    spatialTerms += o.spatialTerms;
    temporalTerms += o.temporalTerms;
    temporalSpatialTerms += o.temporalSpatialTerms;
    codecBits += o.codecBits;
    return *this;
}

TemporalFrameStats
temporalStep(TemporalNetState &state, const NetworkTrace &trace,
             int frameIndex, const TemporalOptions &opts)
{
    if (opts.reanchorInterval < 0)
        throw std::invalid_argument("temporalStep: negative reanchor");
    state.layers.resize(trace.layers.size());
    const TemporalCodec codec(16);

    TemporalFrameStats stats;
    stats.layerCount = static_cast<int>(trace.layers.size());
    for (std::size_t li = 0; li < trace.layers.size(); ++li) {
        const LayerTrace &lt = trace.layers[li];
        TemporalLayerState &st = state.layers[li];
        const std::size_t n = lt.imap.size();
        stats.values += n;

        const std::uint64_t rawTerms = boothTermSum(lt.imap.data(), n);
        const TensorI16 spatial = xDeltas(lt.imap);
        const std::uint64_t spatialTerms =
            boothTermSum(spatial.data(), n);
        stats.rawTerms += rawTerms;
        stats.spatialTerms += spatialTerms;

        // A format or geometry change invalidates the reference: the
        // previous frame's quantized values live in a different
        // fixed-point grid, so "o_{t-1} + conv(Δ)" would mix scales.
        const bool anchor =
            !st.valid || st.prevImap.shape() != lt.imap.shape() ||
            st.prevFracBits != lt.imapFracBits ||
            (opts.reanchorInterval > 0 &&
             frameIndex % opts.reanchorInterval == 0);

        if (anchor) {
            ++stats.anchored;
            stats.temporalTerms += rawTerms;
            stats.temporalSpatialTerms += spatialTerms;
            stats.codecBits += n * 16;
            if (opts.verifyAgainstOracle) {
                // The anchor's omap *is* the per-frame oracle.
                const TensorI32 omap = convolveDirect(
                    lt.imap, lt.weights, lt.spec.stride, lt.spec.dilation);
                st.prevOmap = omap;
            }
        } else {
            const TensorI32 delta = temporalDelta(st.prevImap, lt.imap);
            stats.temporalTerms += boothTermSum(delta.data(), n);
            const TensorI32 both = xDeltas32(delta);
            stats.temporalSpatialTerms += boothTermSum(both.data(), n);
            stats.codecBits += codec.sizeBits(st.prevImap, lt.imap);

            if (opts.verifyAgainstOracle) {
                if (st.prevOmap.empty()) {
                    // Verification switched on mid-stream: the unverified
                    // steps kept no omap, so rebuild the reference from
                    // the stored imap once. Re-anchoring instead would
                    // change the anchored/codecBits accounting.
                    const TensorI32 seeded =
                        convolveDirect(st.prevImap, lt.weights,
                                       lt.spec.stride, lt.spec.dilation);
                    st.prevOmap = seeded;
                }
                const TensorI32 deltaOut = convolveTemporalDelta(
                    delta, lt.weights, lt.spec.stride, lt.spec.dilation);
                if (deltaOut.shape() != st.prevOmap.shape())
                    throw std::logic_error(
                        "temporalStep: delta output geometry diverged");
                TensorI32 omap(deltaOut.shape(),
                               scratchAlloc<std::int32_t>());
                const std::int32_t *po = st.prevOmap.data();
                const std::int32_t *dl = deltaOut.data();
                std::int32_t *oo = omap.data();
                for (std::size_t i = 0; i < omap.size(); ++i)
                    oo[i] = clampToI32(static_cast<std::int64_t>(po[i]) +
                                       dl[i]);
                const TensorI32 oracle =
                    convolveDirect(lt.imap, lt.weights, lt.spec.stride,
                                   lt.spec.dilation);
                if (!(omap == oracle)) {
                    stats.exact = false;
                    throw std::runtime_error(
                        "temporalStep: layer " + lt.spec.name +
                        " reconstruction diverged from the per-frame "
                        "oracle at frame " + std::to_string(frameIndex));
                }
                st.prevOmap = omap;
            }
        }
        if (!opts.verifyAgainstOracle) {
            // Nothing reads an unverified omap. A default tensor is
            // heap-backed, so this move adopts no arena storage.
            st.prevOmap = TensorI32();
        }

        // Copy-assign (not move): cross-frame state must stay on the
        // destination's resource. lt.imap may be arena-backed under an
        // ArenaScope, and a move would adopt storage the next rewind()
        // recycles (common/aligned.hh propagation contract).
        st.prevImap = lt.imap;
        st.prevFracBits = lt.imapFracBits;
        st.valid = true;
    }
    return stats;
}

} // namespace diffy
