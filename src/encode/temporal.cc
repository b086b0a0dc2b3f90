#include "encode/temporal.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/aligned.hh"
#include "common/fixed_point.hh"
#include "encode/bitstream.hh"

namespace diffy
{

namespace
{

DecodeResult
truncatedAt(const BitReader &br, std::size_t values_decoded,
            const std::string &what)
{
    DecodeResult r;
    r.status = DecodeStatus::Truncated;
    r.message = "stream ended inside " + what;
    r.errorBit = br.bitPosition();
    r.valuesDecoded = values_decoded;
    return r;
}

/**
 * BadHeader diagnostic assembly, hoisted out of the per-group decode
 * loop (diffy-lint R9); byte-identical to the old in-loop text.
 */
std::string
badHeaderMessage(int bits, int max_bits)
{
    return "temporal group declares " + std::to_string(bits) +
           " bits (legal max " + std::to_string(max_bits) + ")";
}

/**
 * Group header width of the temporal deltas cur[i] - prev[i]:
 * max(1, max bitsNeeded), by the same branch-free OR-fold as
 * groupBitsNeeded().
 */
int
deltaGroupBits(const std::int16_t *prev, const std::int16_t *cur,
               std::size_t n)
{
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t d = static_cast<std::int32_t>(cur[i]) -
                               static_cast<std::int32_t>(prev[i]);
        m |= static_cast<std::uint32_t>(d ^ (d >> 31));
    }
    return std::bit_width(m) + 1;
}

} // namespace

TemporalCodec::TemporalCodec(int group_size) : groupSize_(group_size)
{
    if (group_size < 1)
        throw std::invalid_argument("TemporalCodec: bad group size");
}

std::string
TemporalCodec::name() const
{
    return "TemporalD" + std::to_string(groupSize_);
}

EncodedTensor
TemporalCodec::encode(const TensorI16 &prev, const TensorI16 &cur) const
{
    if (prev.shape() != cur.shape())
        throw std::invalid_argument(
            "TemporalCodec: reference/current shape mismatch");
    BitWriter bw(scratchAlloc<std::uint8_t>());
    std::vector<BitRange> headers;
    const std::int16_t *p = prev.data();
    const std::int16_t *c = cur.data();
    const std::size_t n = cur.size();
    const auto group = static_cast<std::size_t>(groupSize_);
    headers.reserve((n + group - 1) / group);
    for (std::size_t start = 0; start < n; start += group) {
        const std::size_t len = std::min(group, n - start);
        const int bits = deltaGroupBits(p + start, c + start, len);
        headers.push_back({bw.bitCount(), 5});
        bw.write(static_cast<std::uint32_t>(bits - 1), 5);
        for (std::size_t i = start; i < start + len; ++i) {
            bw.writeSigned(static_cast<std::int32_t>(c[i]) -
                               static_cast<std::int32_t>(p[i]),
                           bits);
        }
    }
    return {cur.shape(), bw.bitCount(), std::move(bw).bytes(),
            std::move(headers)};
}

std::size_t
TemporalCodec::sizeBits(const TensorI16 &prev, const TensorI16 &cur) const
{
    if (prev.shape() != cur.shape())
        throw std::invalid_argument(
            "TemporalCodec: reference/current shape mismatch");
    const std::int16_t *p = prev.data();
    const std::int16_t *c = cur.data();
    const std::size_t n = cur.size();
    const auto group = static_cast<std::size_t>(groupSize_);
    std::size_t bits = 0;
    for (std::size_t start = 0; start < n; start += group) {
        const std::size_t len = std::min(group, n - start);
        const auto width = static_cast<std::size_t>(
            deltaGroupBits(p + start, c + start, len));
        bits += 5 + len * width;
    }
    return bits;
}

DecodeResult
TemporalCodec::tryDecode(const TensorI16 &prev,
                         const EncodedTensor &enc) const
{
    DecodeResult r;
    if (enc.shape != prev.shape()) {
        // The reference frame *defines* the stream geometry; a
        // disagreeing declared shape means the stream belongs to a
        // different anchor epoch and must not be trusted.
        r.status = DecodeStatus::BadShape;
        r.message = "temporal stream shape disagrees with its "
                    "reference frame";
        return r;
    }
    const std::size_t n = prev.size();
    TensorI16 t(prev.shape(), scratchAlloc<std::int16_t>());
    const std::int16_t *p = prev.data();
    std::int16_t *out = t.data();
    BitReader br(enc.bytes);
    const auto group = static_cast<std::size_t>(groupSize_);
    for (std::size_t start = 0; start < n; start += group) {
        const std::size_t len = std::min(group, n - start);
        std::uint32_t hdr = 0;
        if (!br.tryRead(5, hdr))
            return truncatedAt(br, start, "a temporal group header");
        const int bits = static_cast<int>(hdr) + 1;
        if (bits > kMaxFieldBits) {
            r.status = DecodeStatus::BadHeader;
            r.message = badHeaderMessage(bits, kMaxFieldBits);
            r.errorBit = br.bitPosition() - 5;
            r.valuesDecoded = start;
            return r;
        }
        for (std::size_t i = start; i < start + len; ++i) {
            std::int32_t d = 0;
            if (!br.tryReadSigned(bits, d))
                return truncatedAt(br, i, "a temporal field");
            out[i] = saturate16(static_cast<std::int64_t>(p[i]) + d);
        }
    }
    r.tensor = std::move(t);
    r.valuesDecoded = n;
    return r;
}

TensorI16
TemporalCodec::decode(const TensorI16 &prev, const EncodedTensor &enc) const
{
    DecodeResult r = tryDecode(prev, enc);
    if (!r.ok())
        throw DecodeError(r.status, name() + " decode failed: " + r.message);
    return std::move(r.tensor);
}

double
TemporalCodec::bitsPerValue(const TensorI16 &prev, const TensorI16 &cur) const
{
    if (cur.empty())
        return 0.0;
    return static_cast<double>(sizeBits(prev, cur)) /
           static_cast<double>(cur.size());
}

} // namespace diffy
