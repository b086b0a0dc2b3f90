/**
 * @file
 * Tests for the bitstream and the activation compression codecs:
 * exact round-trips, measured sizes, and the orderings the paper's
 * Figs 5/14 rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "encode/bitstream.hh"
#include "encode/schemes.hh"
#include "image/synth.hh"
#include "nn/executor.hh"
#include "nn/models.hh"

namespace diffy
{
namespace
{

TEST(BitStream, WritesAndReadsMixedWidths)
{
    BitWriter bw;
    bw.write(0b101, 3);
    bw.writeSigned(-5, 6);
    bw.write(0xFFFF, 16);
    bw.writeSigned(-1, 2);
    EXPECT_EQ(bw.bitCount(), 27u);

    BitReader br(bw.bytes());
    EXPECT_EQ(br.read(3), 0b101u);   // diffy-lint: allow(R4): raw reader primitives under test
    EXPECT_EQ(br.readSigned(6), -5);
    EXPECT_EQ(br.read(16), 0xFFFFu); // diffy-lint: allow(R4): raw reader primitives under test
    EXPECT_EQ(br.readSigned(2), -1);
    EXPECT_EQ(br.bitPosition(), 27u);
}

TEST(BitStream, RandomRoundTrip)
{
    Rng rng(77);
    std::vector<std::pair<std::int32_t, int>> fields;
    BitWriter bw;
    for (int i = 0; i < 3000; ++i) {
        int bits = 1 + static_cast<int>(rng.below(17));
        std::int32_t lo = -(1 << (bits - 1));
        std::int32_t hi = (1 << (bits - 1)) - 1;
        auto v = static_cast<std::int32_t>(
            lo + static_cast<std::int64_t>(rng.below(
                     static_cast<std::uint64_t>(hi - lo + 1))));
        fields.emplace_back(v, bits);
        bw.writeSigned(v, bits);
    }
    BitReader br(bw.bytes());
    for (const auto &[v, bits] : fields)
        ASSERT_EQ(br.readSigned(bits), v); // diffy-lint: allow(R4): raw reader primitives under test
}

TEST(BitStream, ReaderThrowsPastEnd)
{
    BitWriter bw;
    bw.write(1, 4);
    BitReader br(bw.bytes());
    br.read(4); // diffy-lint: allow(R4): raw reader primitives under test
    // Remaining padding bits (to the byte boundary) are readable, but
    // not beyond the buffer.
    br.read(4); // diffy-lint: allow(R4): raw reader primitives under test
    EXPECT_THROW(br.read(1), std::out_of_range);
}

TEST(BitStream, RejectsBadWidths)
{
    BitWriter bw;
    EXPECT_THROW(bw.write(0, 0), std::invalid_argument);
    EXPECT_THROW(bw.write(0, 33), std::invalid_argument);
}

TEST(BitStream, WordWriterMatchesPerBitReference)
{
    // BitWriter ORs a shifted word in whole bytes; the per-bit loop
    // below is the format's definition (LSB-first, low @p bits of the
    // value, zero-padded to a byte boundary). Every width 1..32 lands
    // at random bit offsets behind a random lead-in field, and the
    // value's bits above the width must be ignored.
    Rng rng(2024);
    std::vector<std::uint8_t> ref;
    std::size_t refBits = 0;
    auto refWrite = [&](std::uint32_t value, int bits) {
        for (int i = 0; i < bits; ++i, ++refBits) {
            if (refBits % 8 == 0)
                ref.push_back(0);
            if ((value >> i) & 1)
                ref[refBits / 8] |=
                    static_cast<std::uint8_t>(1u << (refBits % 8));
        }
    };
    auto low = [](std::uint32_t value, int bits) {
        return bits == 32 ? value : value & ((1u << bits) - 1u);
    };

    BitWriter bw;
    std::vector<std::pair<std::uint32_t, int>> fields;
    for (int bits = 1; bits <= 32; ++bits) {
        for (int rep = 0; rep < 24; ++rep) {
            const int lead = 1 + static_cast<int>(rng.below(31));
            for (int w : {lead, bits}) {
                const auto value = static_cast<std::uint32_t>(rng.next());
                bw.write(value, w);
                refWrite(value, w);
                fields.emplace_back(low(value, w), w);
            }
            ASSERT_EQ(bw.bitCount(), refBits);
            ASSERT_EQ(bw.bytes().size(), ref.size());
        }
    }
    EXPECT_TRUE(std::equal(ref.begin(), ref.end(), bw.bytes().begin()));

    BitReader br(bw.bytes());
    for (const auto &[value, bits] : fields)
        ASSERT_EQ(br.read(bits), value); // diffy-lint: allow(R4): raw reader primitives under test
    EXPECT_EQ(br.bitPosition(), refBits);
}

// ---------------------------------------------------------------
// Codec round-trip properties
// ---------------------------------------------------------------

TensorI16
randomTensor(std::uint64_t seed, int c = 4, int h = 6, int w = 11,
             int bound = 32768)
{
    Rng rng(seed);
    TensorI16 t(c, h, w);
    for (std::size_t i = 0; i < t.size(); ++i) {
        t.data()[i] = static_cast<std::int16_t>(
            static_cast<std::int32_t>(rng.below(2 * bound)) - bound);
    }
    return t;
}

TensorI16
sparseSmoothTensor(std::uint64_t seed, int c = 4, int h = 8, int w = 32)
{
    // ReLU-like: runs of zeros and smooth positive ramps.
    Rng rng(seed);
    TensorI16 t(c, h, w);
    for (int ch = 0; ch < c; ++ch) {
        for (int y = 0; y < h; ++y) {
            std::int32_t level = static_cast<std::int32_t>(rng.below(600));
            for (int x = 0; x < w; ++x) {
                if (rng.uniform() < 0.4) {
                    t.at(ch, y, x) = 0;
                } else {
                    level += static_cast<std::int32_t>(rng.below(9)) - 4;
                    level = std::max(0, level);
                    t.at(ch, y, x) = static_cast<std::int16_t>(level);
                }
            }
        }
    }
    return t;
}

/** Every lossless codec must round-trip arbitrary int16 tensors. */
class LosslessCodecRoundTrip
    : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<ActivationCodec>
    make() const
    {
        const std::string &name = GetParam();
        if (name == "NoCompression")
            return makeNoCompressionCodec();
        if (name == "RLEz")
            return makeRlezCodec();
        if (name == "RLE")
            return makeRleCodec();
        if (name == "RawD8")
            return makeRawDCodec(8);
        if (name == "RawD16")
            return makeRawDCodec(16);
        if (name == "RawD256")
            return makeRawDCodec(256);
        if (name == "DeltaD8")
            return makeDeltaDCodec(8);
        if (name == "DeltaD16")
            return makeDeltaDCodec(16);
        if (name == "DeltaD256")
            return makeDeltaDCodec(256);
        throw std::logic_error("unknown codec under test");
    }
};

TEST_P(LosslessCodecRoundTrip, RandomTensors)
{
    auto codec = make();
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        TensorI16 t = randomTensor(seed);
        EncodedTensor enc = codec->encode(t);
        EXPECT_EQ(codec->decode(enc), t) << codec->name();
    }
}

TEST_P(LosslessCodecRoundTrip, SparseSmoothTensors)
{
    auto codec = make();
    TensorI16 t = sparseSmoothTensor(9);
    EXPECT_EQ(codec->decode(codec->encode(t)), t) << codec->name();
}

TEST_P(LosslessCodecRoundTrip, ExtremeValues)
{
    auto codec = make();
    TensorI16 t(1, 2, 4);
    std::int16_t vals[8] = {32767, -32768, 0, -1, 1, -32768, 32767, 0};
    for (int i = 0; i < 8; ++i)
        t.data()[i] = vals[i];
    EXPECT_EQ(codec->decode(codec->encode(t)), t) << codec->name();
}

TEST_P(LosslessCodecRoundTrip, AllZeros)
{
    auto codec = make();
    TensorI16 t(3, 5, 7, 0);
    EncodedTensor enc = codec->encode(t);
    EXPECT_EQ(codec->decode(enc), t) << codec->name();
}

TEST_P(LosslessCodecRoundTrip, SingleElement)
{
    auto codec = make();
    TensorI16 t(1, 1, 1);
    t.at(0, 0, 0) = -1234;
    EXPECT_EQ(codec->decode(codec->encode(t)), t) << codec->name();
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, LosslessCodecRoundTrip,
    ::testing::Values("NoCompression", "RLEz", "RLE", "RawD8", "RawD16",
                      "RawD256", "DeltaD8", "DeltaD16", "DeltaD256"),
    [](const auto &name_info) { return name_info.param; });

TEST(ProfiledCodec, LosslessWhenPrecisionCovers)
{
    auto codec = makeProfiledCodec(11);
    TensorI16 t = randomTensor(5, 2, 4, 8, 1024); // 11-bit range
    EXPECT_EQ(codec->decode(codec->encode(t)), t);
}

TEST(ProfiledCodec, SaturatesOutliers)
{
    auto codec = makeProfiledCodec(8);
    TensorI16 t(1, 1, 3);
    t.at(0, 0, 0) = 1000;  // above 8-bit max 127
    t.at(0, 0, 1) = -1000; // below -128
    t.at(0, 0, 2) = 100;
    TensorI16 back = codec->decode(codec->encode(t));
    EXPECT_EQ(back.at(0, 0, 0), 127);
    EXPECT_EQ(back.at(0, 0, 1), -128);
    EXPECT_EQ(back.at(0, 0, 2), 100);
}

TEST(ProfiledCodec, RejectsBadPrecision)
{
    EXPECT_THROW(makeProfiledCodec(0), std::invalid_argument);
    EXPECT_THROW(makeProfiledCodec(17), std::invalid_argument);
    // The makeCodec() path (profiled bits from a layer profile) gets
    // the same validation: a precision wider than the legal 16 bits
    // must be rejected, not trusted.
    EXPECT_THROW(makeCodec(Compression::Profiled, 40),
                 std::invalid_argument);
}

// ---------------------------------------------------------------
// Hardened decode: truncation and hostile headers
// ---------------------------------------------------------------

TEST_P(LosslessCodecRoundTrip, TruncatedStreamsReportCleanError)
{
    auto codec = make();
    TensorI16 t = sparseSmoothTensor(21);
    const EncodedTensor valid = codec->encode(t);
    ASSERT_FALSE(valid.bytes.empty());
    // Drop 1 byte, a quarter, half, and everything: each cut removes
    // needed fields, so the hardened decoder must report Truncated —
    // and the throwing wrapper must surface it as an exception.
    for (std::size_t keep :
         {valid.bytes.size() - 1, valid.bytes.size() * 3 / 4,
          valid.bytes.size() / 2, std::size_t{0}}) {
        EncodedTensor cut = valid;
        cut.bytes.resize(keep);
        DecodeResult r = codec->tryDecode(cut);
        EXPECT_EQ(r.status, DecodeStatus::Truncated)
            << codec->name() << " keep=" << keep;
        EXPECT_FALSE(r.message.empty());
        EXPECT_LE(r.errorBit, keep * 8);
        EXPECT_THROW(codec->decode(cut), std::runtime_error);
    }
}

TEST(ProfiledCodec, TruncatedStreamReportsCleanError)
{
    auto codec = makeProfiledCodec(11);
    TensorI16 t = randomTensor(5, 2, 4, 8, 1024);
    EncodedTensor enc = codec->encode(t);
    enc.bytes.resize(enc.bytes.size() / 2);
    EXPECT_EQ(codec->tryDecode(enc).status, DecodeStatus::Truncated);
}

TEST(DeltaDCodec, RejectsOverwideGroupHeader)
{
    // A 5-bit DeltaD group header can declare up to 32-bit fields, but
    // deltas of int16 data never need more than 17: anything wider
    // cannot come from the encoder and must be rejected as BadHeader.
    BitWriter bw;
    bw.write(31, 5); // declares 32-bit fields
    for (int i = 0; i < 16; ++i)
        bw.write(0xFFFFFFFFu, 32);
    EncodedTensor enc;
    enc.shape = {1, 1, 16};
    enc.bits = bw.bitCount();
    enc.bytes = bw.bytes();
    DecodeResult r = makeDeltaDCodec(16)->tryDecode(enc);
    EXPECT_EQ(r.status, DecodeStatus::BadHeader);
    EXPECT_EQ(r.errorBit, 0u);
    EXPECT_THROW(makeDeltaDCodec(16)->decode(enc), std::runtime_error);

    // The widest legal header (17-bit fields) still decodes.
    BitWriter ok;
    ok.write(16, 5); // 17-bit fields
    for (int i = 0; i < 16; ++i)
        ok.writeSigned(-40000, 17); // a legal 17-bit delta
    EncodedTensor legal;
    legal.shape = {1, 1, 16};
    legal.bits = ok.bitCount();
    legal.bytes = ok.bytes();
    EXPECT_TRUE(makeDeltaDCodec(16)->tryDecode(legal).ok());
}

TEST(HardenedDecode, PartialPrefixReportedOnTruncation)
{
    auto codec = makeRawDCodec(16);
    TensorI16 t = randomTensor(22, 1, 2, 32);
    EncodedTensor enc = codec->encode(t);
    enc.bytes.resize(enc.bytes.size() / 2);
    DecodeResult r = codec->tryDecode(enc);
    ASSERT_EQ(r.status, DecodeStatus::Truncated);
    EXPECT_GT(r.valuesDecoded, 0u);
    EXPECT_LT(r.valuesDecoded, t.size());
}

TEST(DecodeStatusStrings, AllNamed)
{
    EXPECT_EQ(to_string(DecodeStatus::Ok), "Ok");
    EXPECT_EQ(to_string(DecodeStatus::BadShape), "BadShape");
    EXPECT_EQ(to_string(DecodeStatus::Truncated), "Truncated");
    EXPECT_EQ(to_string(DecodeStatus::BadHeader), "BadHeader");
}

// ---------------------------------------------------------------
// Size accounting
// ---------------------------------------------------------------

TEST(CodecSizes, NoCompressionIsExactly16BitsPerValue)
{
    TensorI16 t = randomTensor(6);
    EXPECT_DOUBLE_EQ(makeNoCompressionCodec()->bitsPerValue(t), 16.0);
}

TEST(CodecSizes, RawDWithMetadataMatchesFormula)
{
    // A tensor whose every group needs exactly 9 bits.
    TensorI16 t(1, 1, 64);
    for (int x = 0; x < 64; ++x)
        t.at(0, 0, x) = 200; // 9 bits
    double bpv = makeRawDCodec(16)->bitsPerValue(t);
    EXPECT_NEAR(bpv, 9.0 + 4.0 / 16.0, 1e-12);
}

TEST(CodecSizes, RlezCompressesZeroRuns)
{
    TensorI16 t(1, 1, 160, 0);
    for (int x = 0; x < 160; x += 16)
        t.at(0, 0, x) = 300;
    double bpv = makeRlezCodec()->bitsPerValue(t);
    EXPECT_LT(bpv, 3.0); // 10 entries of 20 bits for 160 values
}

TEST(CodecSizes, DeltaDBeatsRawDOnSmoothData)
{
    TensorI16 t(2, 8, 64);
    Rng rng(8);
    for (int c = 0; c < 2; ++c) {
        for (int y = 0; y < 8; ++y) {
            std::int32_t level = 4000;
            for (int x = 0; x < 64; ++x) {
                level += static_cast<std::int32_t>(rng.below(7)) - 3;
                t.at(c, y, x) = static_cast<std::int16_t>(level);
            }
        }
    }
    EXPECT_LT(makeDeltaDCodec(16)->bitsPerValue(t),
              makeRawDCodec(16)->bitsPerValue(t));
}

TEST(CodecSizes, SmallerGroupsAdaptBetterBeforeMetadata)
{
    // On data with isolated spikes, small groups quarantine the wide
    // values. Verify RawD8 payload adapts better than RawD256 overall
    // on spiky data despite its higher metadata rate.
    TensorI16 t(1, 1, 1024, 1);
    for (int x = 0; x < 1024; x += 128)
        t.at(0, 0, x) = 30000;
    EXPECT_LT(makeRawDCodec(8)->bitsPerValue(t),
              makeRawDCodec(256)->bitsPerValue(t));
}

TEST(DeltaDCodec, StreamMatchesScalarOracleAcrossGroupSizes)
{
    // Group sizes 1..33 cross every chunk boundary of the dispatched
    // group-header reduction (common/simd.hh). Whatever table the
    // host dispatched to, the emitted stream must match a reference
    // parse built purely from the scalar bitsNeeded(): per group, a
    // 5-bit header holding max bitsNeeded of the X-delta stream, then
    // that many bits per field.
    TensorI16 t = sparseSmoothTensor(77, 3, 5, 23);
    std::vector<std::int32_t> stream;
    for (int c = 0; c < t.channels(); ++c) {
        for (int y = 0; y < t.height(); ++y) {
            std::int32_t prev = 0;
            for (int x = 0; x < t.width(); ++x) {
                const std::int32_t cur = t.at(c, y, x);
                stream.push_back(x == 0 ? cur : cur - prev);
                prev = cur;
            }
        }
    }
    for (int g = 1; g <= 33; ++g) {
        auto codec = makeDeltaDCodec(g);
        EncodedTensor enc = codec->encode(t);
        ASSERT_EQ(codec->decode(enc), t) << codec->name();
        BitReader br(enc.bytes);
        std::size_t hidx = 0;
        const auto group = static_cast<std::size_t>(g);
        for (std::size_t start = 0; start < stream.size();
             start += group) {
            const std::size_t len =
                std::min(group, stream.size() - start);
            int want_bits = 1;
            for (std::size_t i = 0; i < len; ++i)
                want_bits =
                    std::max(want_bits, bitsNeeded(stream[start + i]));
            ASSERT_LT(hidx, enc.headerBits.size()) << codec->name();
            ASSERT_EQ(enc.headerBits[hidx].first, br.bitPosition())
                << codec->name();
            // diffy-lint: allow(R4): scalar format oracle parses raw bits
            const int bits = static_cast<int>(br.read(5)) + 1;
            ASSERT_EQ(bits, want_bits)
                << codec->name() << " group at " << start;
            for (std::size_t i = 0; i < len; ++i)
                // diffy-lint: allow(R4): scalar format oracle parses raw bits
                ASSERT_EQ(br.readSigned(bits), stream[start + i])
                    << codec->name() << " field " << start + i;
            ++hidx;
        }
        EXPECT_EQ(hidx, enc.headerBits.size()) << codec->name();
        EXPECT_EQ(br.bitPosition(), enc.bits) << codec->name();
    }
}

TEST(CodecSizes, MeasuredBitsMatchBufferLength)
{
    TensorI16 t = sparseSmoothTensor(10);
    for (auto scheme : {Compression::Rlez, Compression::Rle,
                        Compression::RawD16, Compression::DeltaD16}) {
        auto codec = makeCodec(scheme);
        EncodedTensor enc = codec->encode(t);
        EXPECT_LE(enc.bits, enc.bytes.size() * 8);
        EXPECT_GT(enc.bits, (enc.bytes.size() - 1) * 8);
    }
}

TEST(MakeCodec, MapsEnumValues)
{
    EXPECT_EQ(makeCodec(Compression::None)->name(), "NoCompression");
    EXPECT_EQ(makeCodec(Compression::Ideal)->name(), "NoCompression");
    EXPECT_EQ(makeCodec(Compression::Rlez)->name(), "RLEz");
    EXPECT_EQ(makeCodec(Compression::Profiled, 9)->name(), "Profiled9");
    EXPECT_EQ(makeCodec(Compression::DeltaD16)->name(), "DeltaD16");
    EXPECT_EQ(makeCodec(Compression::RawD256)->name(), "RawD256");
}

TEST(CodecOnRealTrace, PaperOrderingHolds)
{
    // On a real CI-DNN trace: DeltaD16 < RawD16 < NoCompression.
    SceneParams p;
    p.kind = SceneKind::Nature;
    p.width = 24;
    p.height = 24;
    p.seed = 12;
    NetworkTrace trace = runNetwork(makeIrCnn(), renderScene(p));
    double delta = 0.0, raw = 0.0, none = 0.0;
    for (const auto &layer : trace.layers) {
        delta += makeDeltaDCodec(16)->bitsPerValue(layer.imap);
        raw += makeRawDCodec(16)->bitsPerValue(layer.imap);
        none += makeNoCompressionCodec()->bitsPerValue(layer.imap);
    }
    EXPECT_LT(delta, raw);
    EXPECT_LT(raw, none);
}

// --------------------------------------------------- stream integrity

TEST(Crc32c, MatchesKnownVectorAndChains)
{
    // RFC 3720 check value for the Castagnoli polynomial.
    const char digits[] = "123456789";
    EXPECT_EQ(crc32c(reinterpret_cast<const std::uint8_t *>(digits), 9),
              0xE3069283u);
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
    // Incremental chaining must equal the one-shot CRC.
    const auto *d = reinterpret_cast<const std::uint8_t *>(digits);
    std::uint32_t chained = crc32c(d, 4);
    chained = crc32c(d + 4, 5, chained);
    EXPECT_EQ(chained, 0xE3069283u);
}

TEST(EncodedIntegrity, SealDetectsPayloadCorruption)
{
    auto codec = makeDeltaDCodec(16);
    EncodedTensor enc = codec->encode(randomTensor(21));
    EXPECT_TRUE(verifyEncoded(enc)) << "unsealed streams vacuously pass";
    sealEncoded(enc);
    EXPECT_TRUE(verifyEncoded(enc));
    enc.bytes[enc.bytes.size() / 2] ^= 0x10;
    EXPECT_FALSE(verifyEncoded(enc));
}

TEST(EncodedIntegrity, TryDecodeVerifiedReportsBadChecksum)
{
    auto codec = makeDeltaDCodec(16);
    TensorI16 t = randomTensor(22);
    EncodedTensor enc = codec->encode(t);
    sealEncoded(enc);
    EXPECT_EQ(codec->tryDecodeVerified(enc).status, DecodeStatus::Ok);
    enc.bytes[3] ^= 0x80;
    DecodeResult r = codec->tryDecodeVerified(enc);
    EXPECT_EQ(r.status, DecodeStatus::BadChecksum);
    EXPECT_EQ(r.valuesDecoded, 0u)
        << "corruption must be detected before reconstruction";
    // decode() surfaces the same detection as a typed throw.
    try {
        codec->decode(enc);
        FAIL() << "expected DecodeError";
    } catch (const DecodeError &e) {
        EXPECT_EQ(e.status(), DecodeStatus::BadChecksum);
    }
}

TEST(EncodedIntegrity, SaveLoadRoundTripIsSealedAndLossless)
{
    auto codec = makeDeltaDCodec(16);
    TensorI16 t = randomTensor(23);
    EncodedTensor enc = codec->encode(t);
    std::ostringstream os;
    saveEncoded(enc, os);
    std::istringstream is(os.str());
    EncodedTensor back = loadEncoded(is);
    EXPECT_TRUE(back.sealed);
    EXPECT_EQ(back.bits, enc.bits);
    EXPECT_EQ(back.headerBits, enc.headerBits);
    EXPECT_EQ(codec->decode(back), t);
}

TEST(EncodedIntegrity, LoadRejectsTruncationAndCorruption)
{
    auto codec = makeDeltaDCodec(16);
    EncodedTensor enc = codec->encode(randomTensor(24));
    std::ostringstream os;
    saveEncoded(enc, os);
    const std::string wire = os.str();

    // Truncated stream: structured Truncated error, never a crash.
    std::istringstream shortStream(wire.substr(0, wire.size() / 2));
    try {
        loadEncoded(shortStream);
        FAIL() << "expected DecodeError";
    } catch (const DecodeError &e) {
        EXPECT_EQ(e.status(), DecodeStatus::Truncated);
    }

    // Flipped payload byte (the footer is the trailing u32 CRC plus
    // u64 bit count, so size-13 is the payload's last byte): the
    // footer CRC catches it at load time.
    std::string corrupt = wire;
    corrupt[corrupt.size() - 13] ^= 0x04;
    std::istringstream corruptStream(corrupt);
    try {
        loadEncoded(corruptStream);
        FAIL() << "expected DecodeError";
    } catch (const DecodeError &e) {
        EXPECT_EQ(e.status(), DecodeStatus::BadChecksum);
    }

    // Wrong magic: rejected before anything is parsed.
    std::string badMagic = wire;
    badMagic[0] ^= 0xFF;
    std::istringstream badMagicStream(badMagic);
    EXPECT_THROW(loadEncoded(badMagicStream), DecodeError);
}

} // namespace
} // namespace diffy
