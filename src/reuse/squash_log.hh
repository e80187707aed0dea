/**
 * @file
 * Squash Log (paper section 3.3.2): the Rename-stage mirror of the
 * Wrong-Path Buffers, at instruction granularity. Each stream records
 * the squashed instruction sequence -- execution status, source and
 * destination RGIDs and the destination physical register -- populated
 * from the ROB on a branch misprediction. During a reuse session the
 * log operates in lockstep with the incoming instruction stream.
 *
 * The hardware log does not store PCs (the IFU signals the window);
 * we record the PC per entry to implement the IFU's divergence
 * monitoring behaviourally and to enable strong internal checks. The
 * storage model (Table 2) accounts for the paper's field layout.
 */

#ifndef MSSR_REUSE_SQUASH_LOG_HH
#define MSSR_REUSE_SQUASH_LOG_HH

#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"

namespace mssr
{

/** One squashed instruction's reuse metadata. */
struct SquashLogEntry
{
    bool executed = false;      //!< result value available in destPreg
    bool reserved = false;      //!< destPreg parked in Reserved state
    bool consumed = false;      //!< reused or reservation released
    // Funnel lifecycle flags (common/cpi_stack.hh): set at most once
    // per entry so the funnel stage counts stay monotonic even when a
    // stream is covered by more than one session over its lifetime.
    bool covered = false;       //!< a detected reconvergence covered this
    bool tested = false;        //!< the rename-side reuse test reached this
    /**
     * Dynamic sequence number of the squashed instruction this entry
     * was populated from. Not hardware state: carried so the
     * pipeline viewer (common/pipeview.hh) can attribute squash-log
     * lifecycle events (logged/covered/tested/reused) back to the
     * donor instruction's lifecycle record.
     */
    SeqNum seq = 0;
    Addr pc = 0;
    isa::Op op = isa::Op::NOP;
    std::uint8_t numSrcs = 0;
    Rgid srcRgid[2] = {0, 0};
    Rgid dstRgid = 0;
    PhysReg destPreg = InvalidPhysReg;
    bool hasDest = false;
    bool isLoad = false;
    bool isStore = false;
    bool isControl = false;
    Addr memAddr = 0;
    std::uint8_t memSize = 0;

    bool operator==(const SquashLogEntry &) const = default;
};

/**
 * One squashed stream's log.
 *
 * Invariant: every slot at or past numEntries is a default-constructed
 * SquashLogEntry, so a stream is live exactly when numEntries > 0.
 * SquashLog::append() writes slots in order and every path that drops a
 * stream goes through SquashLog::clearStream(), so clearing, releasing
 * and scanning a stream touch only the filled prefix
 * entries[0, numEntries), never the configured capacity.
 */
struct SquashLogStream
{
    std::vector<SquashLogEntry> entries;
    unsigned numEntries = 0;    //!< filled prefix of entries
};

class SquashLog
{
  public:
    SquashLog(unsigned num_streams, unsigned entries_per_stream);

    unsigned numStreams() const
    {
        return static_cast<unsigned>(streams_.size());
    }

    SquashLogStream &stream(unsigned s) { return streams_[s]; }
    const SquashLogStream &stream(unsigned s) const { return streams_[s]; }

    /**
     * Clears stream @p s for rewriting (WPB allocates round-robin).
     * Resets only the filled prefix; the rest is already default.
     */
    void clearStream(unsigned s);

    /**
     * Appends one squashed instruction to stream @p s. Entries beyond
     * capacity are discarded (younger squashed insts dropped).
     * @return true when the entry was recorded.
     */
    bool append(unsigned s, const SquashLogEntry &entry);

    /** True when no stream holds entries (RGID reset trigger). */
    bool allUnoccupied() const;

  private:
    std::vector<SquashLogStream> streams_;
    unsigned entriesPerStream_;
};

} // namespace mssr

#endif // MSSR_REUSE_SQUASH_LOG_HH
