#include "common/serialize.hh"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/log.hh"

namespace mssr
{

namespace
{

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Lazily built slice-by-8 CRC-32 tables (reflected 0xEDB88320):
 * table 0 is the bytewise table, and table k gives a byte's CRC
 * followed by k zero bytes.
 */
const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < t.size(); ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
        return t;
    }();
    return tables;
}

constexpr std::size_t MagicBytes = 8;
constexpr std::size_t TagBytes = 4;
// Section header: tag + u64 payload length; trailer: u32 CRC.
constexpr std::size_t SectionHeaderBytes = TagBytes + 8;
constexpr std::size_t SectionTrailerBytes = 4;

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t n)
{
    const CrcTables &t = crcTables();
    std::uint32_t c = 0xFFFFFFFFu;
    // Eight bytes a step: the CRC folds into the first four, and byte
    // j's lookup in table 7 - j carries it past the bytes after it.
    for (; n >= 8; data += 8, n -= 8) {
        const std::uint32_t lo = c ^ getLe<std::uint32_t>(data);
        const std::uint32_t hi = getLe<std::uint32_t>(data + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++data, --n)
        c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ----------------------------------------------------------- SerialWriter

SerialWriter::SerialWriter(const char magic[8], std::uint32_t version)
{
    for (std::size_t i = 0; i < MagicBytes; ++i)
        u8(static_cast<std::uint8_t>(magic[i]));
    u32(version);
}

void
SerialWriter::u8(std::uint8_t v)
{
    buf_.push_back(v);
}

void
SerialWriter::u32(std::uint32_t v)
{
    putLe(append(4), v);
}

void
SerialWriter::u64(std::uint64_t v)
{
    putLe(append(8), v);
}

void
SerialWriter::bytes(const std::uint8_t *data, std::size_t n)
{
    if (n != 0)
        buf_.insert(buf_.end(), data, data + n);
}

std::uint8_t *
SerialWriter::append(std::size_t n)
{
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
}

void
SerialWriter::beginSection(const char tag[4])
{
    mssr_assert(!inSection_, "serialize: sections cannot nest");
    inSection_ = true;
    buf_.insert(buf_.end(), tag, tag + TagBytes);
    u64(0); // payload length, patched by endSection()
    sectionStart_ = buf_.size();
}

void
SerialWriter::endSection()
{
    mssr_assert(inSection_, "serialize: endSection without beginSection");
    inSection_ = false;
    const std::uint64_t len = buf_.size() - sectionStart_;
    putLe(buf_.data() + sectionStart_ - 8, len);
    // The CRC covers the whole section -- tag, patched length and
    // payload -- so corruption anywhere in it is caught, not just in
    // the payload bytes.
    u32(crc32(buf_.data() + sectionStart_ - SectionHeaderBytes,
              SectionHeaderBytes + static_cast<std::size_t>(len)));
}

const std::vector<std::uint8_t> &
SerialWriter::buffer() const
{
    mssr_assert(!inSection_, "serialize: buffer() with an open section");
    return buf_;
}

void
SerialWriter::writeFile(const std::string &path) const
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw SerializeError("cannot write '" + tmp + "'");
        const auto &b = buffer();
        os.write(reinterpret_cast<const char *>(b.data()),
                 static_cast<std::streamsize>(b.size()));
        if (!os)
            throw SerializeError("short write to '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SerializeError("cannot rename '" + tmp + "' to '" + path +
                             "'");
    }
}

// ----------------------------------------------------------- SerialReader

SerialReader::SerialReader(std::vector<std::uint8_t> data,
                           const char magic[8], std::uint32_t version)
    : buf_(std::move(data))
{
    if (buf_.size() < MagicBytes + 4)
        throw SerializeError("file too short for a header");
    if (std::memcmp(buf_.data(), magic, MagicBytes) != 0)
        throw SerializeError("bad magic (not a " +
                             std::string(magic, magic + MagicBytes) +
                             " file)");
    pos_ = MagicBytes;
    const std::uint32_t v = u32();
    if (v != version)
        throw SerializeError("unsupported version " + std::to_string(v) +
                             " (expected " + std::to_string(version) + ")");
}

std::vector<std::uint8_t>
SerialReader::readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        throw SerializeError("cannot open '" + path + "'");
    const std::streamsize size = is.tellg();
    is.seekg(0);
    std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
    if (size > 0 &&
        !is.read(reinterpret_cast<char *>(data.data()), size))
        throw SerializeError("cannot read '" + path + "'");
    return data;
}

std::uint8_t
SerialReader::u8()
{
    return *take(1);
}

std::uint32_t
SerialReader::u32()
{
    return getLe<std::uint32_t>(take(4));
}

std::uint64_t
SerialReader::u64()
{
    return getLe<std::uint64_t>(take(8));
}

void
SerialReader::bytes(std::uint8_t *out, std::size_t n)
{
    if (n != 0)
        std::memcpy(out, take(n), n);
}

const std::uint8_t *
SerialReader::take(std::size_t n)
{
    const std::size_t limit = inSection_ ? sectionEnd_ : buf_.size();
    if (pos_ + n > limit)
        throw SerializeError(inSection_
                                 ? "read past end of section"
                                 : "read past end of file");
    const std::uint8_t *at = buf_.data() + pos_;
    pos_ += n;
    return at;
}

std::string
SerialReader::enterSection()
{
    mssr_assert(!inSection_, "serialize: sections cannot nest");
    if (pos_ + SectionHeaderBytes > buf_.size())
        throw SerializeError("truncated section header");
    const std::size_t header = pos_;
    std::string tag(reinterpret_cast<const char *>(buf_.data() + pos_),
                    TagBytes);
    pos_ += TagBytes;
    const std::uint64_t len = u64();
    if (len > buf_.size() - pos_ ||
        buf_.size() - pos_ - static_cast<std::size_t>(len) <
            SectionTrailerBytes)
        throw SerializeError("section '" + tag +
                             "' overruns the file (truncated?)");
    const std::size_t payload = pos_;
    const std::size_t end = payload + static_cast<std::size_t>(len);
    const std::uint32_t stored = getLe<std::uint32_t>(buf_.data() + end);
    if (crc32(buf_.data() + header,
              SectionHeaderBytes + static_cast<std::size_t>(len)) != stored)
        throw SerializeError("CRC mismatch in section '" + tag + "'");
    inSection_ = true;
    sectionEnd_ = end;
    return tag;
}

void
SerialReader::leaveSection()
{
    mssr_assert(inSection_, "serialize: leaveSection outside a section");
    if (pos_ != sectionEnd_)
        throw SerializeError("section not fully consumed (format drift: " +
                             std::to_string(sectionEnd_ - pos_) +
                             " bytes left)");
    pos_ = sectionEnd_ + SectionTrailerBytes;
    inSection_ = false;
}

bool
SerialReader::atEnd() const
{
    return !inSection_ && pos_ == buf_.size();
}

std::size_t
SerialReader::remaining() const
{
    return (inSection_ ? sectionEnd_ : buf_.size()) - pos_;
}

} // namespace mssr
