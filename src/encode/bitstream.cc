#include "encode/bitstream.hh"

#include <stdexcept>

namespace diffy
{

void
BitWriter::write(std::uint32_t value, int bits)
{
    if (bits < 1 || bits > 32)
        throw std::invalid_argument("BitWriter: bits out of range");
    // Grow to the final byte count up front (value-initialized, same
    // zero bytes push_back(0) appended) so the byte loop never
    // reallocates.
    const std::size_t needed = (bitCount_ + static_cast<std::size_t>(bits) + 7) / 8;
    if (needed > bytes_.size())
        bytes_.resize(needed);
    // The masked field, shifted to its offset in the current byte,
    // spans at most 5 bytes, all inside the grown buffer; OR them in
    // whole.
    std::uint64_t word =
        (value & (~std::uint64_t{0} >> (64 - bits))) << (bitCount_ % 8);
    for (std::uint8_t *dst = bytes_.data() + bitCount_ / 8; word != 0;
         word >>= 8)
        *dst++ |= static_cast<std::uint8_t>(word);
    bitCount_ += static_cast<std::size_t>(bits);
}

void
BitWriter::writeSigned(std::int32_t value, int bits)
{
    write(static_cast<std::uint32_t>(value) &
              (bits == 32 ? 0xFFFFFFFFu : ((1u << bits) - 1u)),
          bits);
}

std::uint32_t
BitReader::read(int bits)
{
    if (bits < 1 || bits > 32)
        throw std::invalid_argument("BitReader: bits out of range");
    std::uint32_t value = 0;
    if (!tryRead(bits, value))
        throw std::out_of_range("BitReader: stream exhausted");
    return value;
}

bool
BitReader::tryRead(int bits, std::uint32_t &value)
{
    if (bits < 1 || bits > 32)
        return false;
    if (!hasBits(static_cast<std::size_t>(bits)))
        return false;
    std::uint32_t v = 0;
    for (int i = 0; i < bits; ++i) {
        std::size_t bit_index = pos_ + i;
        if ((bytes_[bit_index / 8] >> (bit_index % 8)) & 1)
            v |= 1u << i;
    }
    pos_ += static_cast<std::size_t>(bits);
    value = v;
    return true;
}

bool
BitReader::tryReadSigned(int bits, std::int32_t &value)
{
    std::uint32_t raw = 0;
    if (!tryRead(bits, raw))
        return false;
    if (bits < 32 && (raw & (1u << (bits - 1))))
        raw |= ~((1u << bits) - 1u); // sign extend
    value = static_cast<std::int32_t>(raw);
    return true;
}

std::int32_t
BitReader::readSigned(int bits)
{
    std::uint32_t raw = read(bits);
    if (bits < 32 && (raw & (1u << (bits - 1))))
        raw |= ~((1u << bits) - 1u); // sign extend
    return static_cast<std::int32_t>(raw);
}

} // namespace diffy
