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

/** Lazily built CRC-32 lookup table (reflected 0xEDB88320). */
const std::array<std::uint32_t, 256> &
crcTable()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
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
    const auto &table = crcTable();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
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
    for (unsigned i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
SerialWriter::u64(std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
SerialWriter::bytes(const std::uint8_t *data, std::size_t n)
{
    if (n != 0)
        buf_.insert(buf_.end(), data, data + n);
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
    for (unsigned i = 0; i < 8; ++i)
        buf_[sectionStart_ - 8 + i] = static_cast<std::uint8_t>(len >> (8 * i));
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

void
SerialReader::need(std::size_t n) const
{
    const std::size_t limit = inSection_ ? sectionEnd_ : buf_.size();
    if (pos_ + n > limit)
        throw SerializeError(inSection_
                                 ? "read past end of section"
                                 : "read past end of file");
}

std::uint8_t
SerialReader::u8()
{
    need(1);
    return buf_[pos_++];
}

std::uint32_t
SerialReader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= std::uint32_t{buf_[pos_++]} << (8 * i);
    return v;
}

std::uint64_t
SerialReader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= std::uint64_t{buf_[pos_++]} << (8 * i);
    return v;
}

void
SerialReader::bytes(std::uint8_t *out, std::size_t n)
{
    if (n == 0)
        return;
    need(n);
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
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
    std::uint32_t stored = 0;
    for (unsigned i = 0; i < 4; ++i)
        stored |= std::uint32_t{buf_[end + i]} << (8 * i);
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
