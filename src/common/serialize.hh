/**
 * @file
 * Versioned, endian-stable binary serialization for on-disk simulator
 * artifacts (checkpoints first; any future binary format should reuse
 * this container instead of inventing another framing).
 *
 * Container layout (`docs/FORMATS.md` is the normative reference):
 *
 *   [8-byte magic][u32 version]
 *   repeated sections:
 *     [4-byte tag][u64 payload bytes][payload][u32 CRC32]
 *
 * All multi-byte integers are little-endian regardless of host
 * endianness (values are assembled byte-by-byte, never memcpy'd: see
 * putLe/getLe), so a checkpoint written on any machine restores on
 * any other. Every section carries a CRC32 of its tag, length and
 * payload, so a flip of any byte anywhere in the file is detected;
 * the reader validates magic, version, section bounds and CRC before
 * handing out a single byte, and throws SerializeError -- never
 * crashes, never partially populates caller state -- on any mismatch.
 */

#ifndef MSSR_COMMON_SERIALIZE_HH
#define MSSR_COMMON_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mssr
{

/** Any structural problem with a serialized file: bad magic, version
 *  mismatch, truncation, CRC failure, or over-read of a section. */
class SerializeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant). */
std::uint32_t crc32(const std::uint8_t *data, std::size_t n);

/**
 * Stores @p v at @p p as sizeof(T) little-endian bytes. Unrolled, the
 * byte stores merge into one store on a little-endian host.
 */
template <typename T>
inline void
putLe(std::uint8_t *p, T v)
{
#pragma GCC unroll 8
    for (std::size_t i = 0; i < sizeof(T); ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Loads a T from sizeof(T) little-endian bytes at @p p (one load
 *  on a little-endian host, as putLe). */
template <typename T>
inline T
getLe(const std::uint8_t *p)
{
    T v = 0;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(p[i]) << (8 * i);
    return v;
}

/**
 * Builds a sectioned binary image in memory. Typical use:
 *
 *   SerialWriter w("MSSRCKPT", 1);
 *   w.beginSection("REGS");
 *   w.u64(...); ...
 *   w.endSection();
 *   w.writeFile(path);
 */
class SerialWriter
{
  public:
    /** Starts an image with an 8-character magic and a version word. */
    SerialWriter(const char magic[8], std::uint32_t version);

    /** @name Primitive emitters (little-endian) */
    /// @{
    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void bytes(const std::uint8_t *data, std::size_t n);
    /// @}

    /**
     * Appends @p n bytes for the caller to fill (putLe) and returns
     * where they start: a run of records is encoded in one step. The
     * pointer is valid until the next write.
     */
    std::uint8_t *append(std::size_t n);

    /** Opens a section with a 4-character tag. Sections cannot nest. */
    void beginSection(const char tag[4]);
    /** Closes the open section: patches the length, appends the CRC. */
    void endSection();

    /** The finished image. Fatal if a section is still open. */
    const std::vector<std::uint8_t> &buffer() const;

    /**
     * Writes the image to @p path via a same-directory temporary plus
     * rename, so a crash mid-write never leaves a half-written file
     * where a reader expects a checkpoint. Throws SerializeError on
     * I/O failure.
     */
    void writeFile(const std::string &path) const;

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t sectionStart_ = 0; //!< payload offset of the open section
    bool inSection_ = false;
};

/**
 * Validating reader over a sectioned binary image. The constructor
 * checks magic and version; enterSection() checks bounds and CRC for
 * the whole section before any payload accessor runs, so a corrupt
 * file is rejected up front rather than surfacing as garbage values.
 */
class SerialReader
{
  public:
    /** Takes ownership of @p data; validates magic and version. */
    SerialReader(std::vector<std::uint8_t> data, const char magic[8],
                 std::uint32_t version);

    /** Reads @p path fully into memory. Throws SerializeError if the
     *  file cannot be opened or read. */
    static std::vector<std::uint8_t> readFile(const std::string &path);

    /** @name Primitive accessors (little-endian)
     * Throw SerializeError when the read would cross the current
     * section's end (or the image end outside any section).
     */
    /// @{
    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    void bytes(std::uint8_t *out, std::size_t n);
    /// @}

    /**
     * Consumes @p n bytes and returns where they start, for decoding
     * a run of records in one step (getLe). Throws like the
     * accessors.
     */
    const std::uint8_t *take(std::size_t n);

    /**
     * Opens the next section: validates the header fits, the payload
     * is in bounds and the trailing CRC matches, then returns the
     * 4-character tag. Accessors are then confined to the payload.
     */
    std::string enterSection();

    /** Closes the current section and seeks to the next header.
     *  Throws if the payload was not fully consumed (format drift). */
    void leaveSection();

    /** True when the cursor sits at the end of the image. */
    bool atEnd() const;

    /** Bytes left in the current section (or image): lets readers
     *  sanity-check element counts before allocating for them. */
    std::size_t remaining() const;

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::size_t sectionEnd_ = 0; //!< payload end of the open section
    bool inSection_ = false;
};

} // namespace mssr

#endif // MSSR_COMMON_SERIALIZE_HH
