/**
 * @file
 * Wrong-Path Buffers (paper section 3.3.1): a two-dimensional buffer
 * of N streams x M fetch-block entries that retains the prediction
 * blocks of squashed instruction streams. The currently fetched
 * prediction blocks are compared against all WPB entries to detect a
 * reconvergence point (section 3.4).
 */

#ifndef MSSR_REUSE_WPB_HH
#define MSSR_REUSE_WPB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mssr
{

/** One WPB entry: a contiguous squashed fetch-block range. */
struct WpbEntry
{
    Addr startPC = 0;
    Addr endPC = 0;   //!< inclusive

    /** Instructions in the range. */
    unsigned
    numInsts() const
    {
        return static_cast<unsigned>((endPC - startPC) / InstBytes + 1);
    }
};

/**
 * One squashed stream in the WPB, with the reuse unit's record of
 * where it came from.
 *
 * Invariant: entries[0, numEntries) are valid and every slot at or past
 * numEntries is invalid (its PCs may be left over from a longer earlier
 * write), so a stream is live exactly when numEntries > 0. Everything
 * that walks a stream stops at numEntries instead of the configured
 * capacity.
 */
struct WpbStream
{
    std::vector<WpbEntry> entries;
    unsigned numEntries = 0;         //!< filled prefix of entries
    Addr vpn = 0;                    //!< PC[47:12] when VPN-restricted
    SeqNum originBranchSeq = 0;      //!< branch whose squash made this
    Addr originPC = 0;               //!< that branch's PC (probe events)
    std::uint64_t squashEventIndex = 0;
    Cycle captureCycle = 0;          //!< cycle of that squash
    std::uint64_t ageInsts = 0;      //!< renamed insts since creation
    bool inSession = false;          //!< held by a queued reuse session

    /** Total instructions covered by the filled entries. */
    unsigned numInsts() const;
};

class Wpb
{
  public:
    /**
     * @param num_streams N squashed streams.
     * @param entries_per_stream M fetch blocks per stream.
     * @param restrict_vpn keep each stream within one virtual page.
     */
    Wpb(unsigned num_streams, unsigned entries_per_stream,
        bool restrict_vpn);

    unsigned numStreams() const
    {
        return static_cast<unsigned>(streams_.size());
    }
    const WpbStream &stream(unsigned s) const { return streams_[s]; }
    WpbStream &stream(unsigned s) { return streams_[s]; }

    /**
     * Allocates the next stream (round-robin), clearing its previous
     * contents, and fills it from @p ranges (squashed-path block
     * ranges, oldest first). Ranges beyond capacity or outside the
     * first block's page (when VPN-restricted) are dropped.
     * @return the stream index written.
     */
    unsigned writeStream(const std::vector<WpbEntry> &ranges,
                         SeqNum origin_branch_seq,
                         std::uint64_t squash_event_index);

    /** Stream index the next writeStream() call will overwrite. */
    unsigned nextStream() const { return writePtr_; }

    /** Invalidates stream @p s: it holds no entries. */
    void invalidate(unsigned s);

    /** True when any stream holds entries. */
    bool anyValid() const;

    bool restrictVpn() const { return restrictVpn_; }

  private:
    std::vector<WpbStream> streams_;
    unsigned entriesPerStream_;
    bool restrictVpn_;
    unsigned writePtr_ = 0;
};

} // namespace mssr

#endif // MSSR_REUSE_WPB_HH
