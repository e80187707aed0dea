/**
 * @file
 * Generic set-associative cache tag model with LRU replacement. Models
 * hit/miss behaviour and statistics; data values live in the backing
 * Memory (this is a latency/occupancy model, as in trace-driven cache
 * simulators).
 */

#ifndef MSSR_MEMSYS_CACHE_HH
#define MSSR_MEMSYS_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace mssr
{

/** Set-associative, write-back, write-allocate cache tag array. */
class Cache
{
  public:
    /**
     * @param name stat prefix ("l1d", "l2").
     * @param size_bytes total capacity.
     * @param assoc ways per set.
     * @param line_bytes cache line size.
     * @param latency access latency in cycles (hit time).
     */
    Cache(std::string name, std::size_t size_bytes, unsigned assoc,
          unsigned line_bytes, unsigned latency);

    /**
     * Performs an access. On a miss the line is allocated (LRU victim
     * evicted).
     * @param addr byte address.
     * @param is_write marks the line dirty on writes.
     * @return true on hit.
     */
    bool access(Addr addr, bool is_write);

    /** True when @p addr currently hits, with no state change. */
    bool probe(Addr addr) const;

    unsigned latency() const { return latency_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t writebacks() const { return writebacks_; }
    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** Exports counters into @p stats under "<name>.". */
    void reportStats(StatSet &stats) const;

    void resetStats();

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
    };

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    std::string name_;
    unsigned assoc_;
    unsigned lineBytes_;
    unsigned latency_;
    unsigned numSets_;
    std::vector<Line> lines_;    //!< numSets_ x assoc_, row-major
    std::uint64_t lruClock_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace mssr

#endif // MSSR_MEMSYS_CACHE_HH
