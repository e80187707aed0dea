/**
 * @file
 * Sparse byte-addressable backing memory for the simulated machine.
 * Pages are allocated on first touch and zero-initialised.
 *
 * A small direct-mapped translation cache in front of the page map
 * serves the common access patterns — sequential marches, stack
 * traffic, and loops alternating between a handful of arrays (graph
 * CSR offsets / neighbors / frontier) — without an unordered_map
 * probe per access. Page storage is unique_ptr-owned, so cached raw
 * pointers stay valid across map rehashes.
 */

#ifndef MSSR_SIM_MEMORY_HH
#define MSSR_SIM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace mssr
{

/** Sparse physical memory with typed accessors. */
class Memory
{
  public:
    static constexpr std::size_t PageBytes = 4096;

    /** Reads @p n bytes (n <= 8) at @p addr, little-endian. */
    std::uint64_t read(Addr addr, unsigned n) const;

    /** Writes the low @p n bytes (n <= 8) of @p value at @p addr. */
    void write(Addr addr, std::uint64_t value, unsigned n);

    /** Bulk-writes @p n bytes at @p addr, page-sized memcpy spans --
     *  the program-image / data-blob installation path. */
    void writeBlock(Addr addr, const std::uint8_t *data, std::size_t n);

    std::uint64_t read64(Addr addr) const { return read(addr, 8); }
    std::uint32_t
    read32(Addr addr) const
    {
        return static_cast<std::uint32_t>(read(addr, 4));
    }
    std::uint8_t
    read8(Addr addr) const
    {
        return static_cast<std::uint8_t>(read(addr, 1));
    }
    void write64(Addr addr, std::uint64_t v) { write(addr, v, 8); }
    void write8(Addr addr, std::uint8_t v) { write(addr, v, 1); }

    /** Number of pages currently allocated (for tests/inspection). */
    std::size_t numPages() const { return pages_.size(); }

    /**
     * Byte-for-byte comparison with another memory. Iterates both
     * sparse page maps directly; a page allocated on only one side
     * counts as equal when it is entirely zero (pages are born
     * zero-filled, so sparseness is not observable).
     */
    bool equals(const Memory &other) const;

    /**
     * All allocated pages as (page number, page bytes), sorted by page
     * number -- the deterministic order checkpoints serialize in. The
     * pointers stay valid until the next write()/loadPage().
     */
    std::vector<std::pair<Addr, const std::uint8_t *>> sortedPages() const;

    /** Installs a full page image at @p pageNum (allocating it if
     *  needed). Used by checkpoint restore. */
    void loadPage(Addr pageNum, const std::uint8_t *data);

  private:
    using Page = std::array<std::uint8_t, PageBytes>;

    const Page *findPage(Addr addr) const;
    Page &touchPage(Addr addr);

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;

    // Direct-mapped page-translation cache, indexed by the low bits
    // of the page number. Only *allocated* pages are cached — never
    // absence (a cached read miss would go stale when a later write
    // allocates the page).
    static constexpr std::size_t TlbEntries = 64; // power of two
    struct TlbEntry
    {
        Addr pageNum = 0;
        Page *page = nullptr;
    };
    mutable std::array<TlbEntry, TlbEntries> tlb_{};
};

} // namespace mssr

#endif // MSSR_SIM_MEMORY_HH
