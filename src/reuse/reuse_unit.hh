/**
 * @file
 * Multi-Stream Squash Reuse unit (paper section 3): owns the Wrong-
 * Path Buffers, Squash Logs, RGID allocator and Bloom filter, and
 * coordinates the fetch-side reconvergence detection with the rename-
 * side reuse test. The owning core delegates squashed-register
 * disposition to this unit so the physical-register reservation
 * policies (1)-(5) of section 3.3.2 are applied in one place.
 */

#ifndef MSSR_REUSE_REUSE_UNIT_HH
#define MSSR_REUSE_REUSE_UNIT_HH

#include <deque>
#include <vector>

#include "common/config.hh"
#include "common/cpi_stack.hh"
#include "common/probe.hh"
#include "common/stats.hh"
#include "core/dyn_inst.hh"
#include "core/free_list.hh"
#include "frontend/pred_block.hh"
#include "reuse/bloom.hh"
#include "reuse/reconv_detector.hh"
#include "reuse/rgid.hh"
#include "reuse/squash_log.hh"
#include "reuse/wpb.hh"

namespace mssr
{

/** Rename-stage outcome of the reuse test for one instruction. */
struct ReuseAdvice
{
    bool reuse = false;          //!< adopt destPreg/dstRgid, complete now
    bool needVerify = false;     //!< reused load must re-execute & compare
    PhysReg destPreg = InvalidPhysReg;
    Rgid dstRgid = 0;
    Addr memAddr = 0;            //!< squash-time load address
    std::uint8_t memSize = 0;
};

class ReuseUnit
{
  public:
    ReuseUnit(const ReuseConfig &cfg, FreeList &free_list);

    /** @name Squash-side interface */
    /// @{
    /**
     * Records a branch-misprediction squash: dumps the squashed path
     * into a fresh WPB stream, populates the matching Squash Log
     * stream, and reserves or releases each squashed instruction's
     * destination physical register per the reservation policies.
     * @param branch_seq sequence number of the mispredicted branch.
     * @param squashed squashed instructions, oldest first (renamed
     *        instructions only; all still own their dst pregs).
     * @param now current cycle (stamps the stream's capture time for
     *        the capture-to-reuse latency histogram).
     * @param branch_pc static PC of the mispredicted branch (stamps
     *        the stream's origin for its probe events; 0 = unknown,
     *        only valid while no profile is attached).
     */
    void onBranchSquash(SeqNum branch_seq,
                        const std::vector<DynInstPtr> &squashed,
                        Cycle now = 0, Addr branch_pc = 0);

    /**
     * Non-branch squash (memory-order violation or reuse-verification
     * failure): releases squashed dst pregs; when @p invalidate_all is
     * set (verification failure, section 3.8.3) every stream and the
     * Bloom filter are cleared.
     */
    void onOtherSquash(const std::vector<DynInstPtr> &squashed,
                       bool invalidate_all);
    /// @}

    /** @name Fetch-side interface */
    /// @{
    /** Runs reconvergence detection against a newly formed block. */
    void onBlockFormed(const PredBlock &block);
    /// @}

    /** @name Rename-side interface */
    /// @{
    /**
     * Advances the lockstep reuse session (if any) with the renamed
     * instruction and performs the reuse test against the current
     * source RGIDs. Must be called for every renamed instruction.
     * On advice.reuse the caller must adopt the returned mapping.
     * @param now current cycle (capture-to-reuse latency histogram).
     */
    ReuseAdvice processRename(const DynInstPtr &inst,
                              const Rgid current_src_rgids[2],
                              Cycle now = 0);

    /** Allocates a fresh destination RGID (non-reused rename). */
    Rgid allocDstRgid(ArchReg rd) { return rgids_.alloc(rd); }
    /// @}

    /** @name Memory-hazard interface (section 3.8) */
    /// @{
    /** Reports an executed store's address for Bloom tracking. */
    void onStoreExecuted(Addr addr, unsigned size);
    /// @}

    /**
     * Frees the least-recent stream's reservations (policy (5), free-
     * list pressure). @return true when any register was reclaimed.
     */
    bool reclaimLeastRecentStream();

    const Wpb &wpb() const { return wpb_; }
    const SquashLog &squashLog() const { return log_; }
    const RgidAllocator &rgids() const { return rgids_; }

    /**
     * Attaches the owning core's probe (or null): squash-log appends,
     * reconvergence detections, coverage, session starts and every
     * reuse-test verdict are emitted with the squash-log donor's seq
     * and the origin branch PC of the stream involved. Must be attached
     * before any squash is recorded so every stream carries its origin
     * PC. The probe carries the current cycle.
     */
    void setProbe(Probe *probe) { probe_ = probe; }

    /**
     * The reuse-pipeline stages and kill reasons (logged .. reused;
     * squashed and the verify fields are zero, the core owns them).
     * The stage algebra is exact: rgidPass and hazardPass are derived
     * from the first-time-test kill counters (derivePasses), and every
     * hazard pass is a reuse.
     */
    ReuseFunnel funnel() const;

    void reportStats(StatSet &stats) const;

  private:
    /**
     * One reuse session: a detected reconvergence between the fetch
     * stream and one squashed stream. The IFU (onBlockFormed) tracks
     * the session against newly formed blocks and marks it fetchDone
     * on divergence/exhaustion so detection can resume immediately --
     * this is what lets a corrected stream chain from one squashed
     * stream to a more distant one (Figure 1). The Rename stage
     * processes sessions in FIFO order in lockstep with the incoming
     * instructions.
     */
    struct Session
    {
        unsigned stream = 0;
        unsigned startCursor = 0; //!< first Squash Log entry to test
        Addr reconvPC = 0;
        bool fetchDone = false;   //!< IFU stopped extending coverage
        // IFU cursor: the squashed-stream instruction the next fetched
        // one must match, as a WPB entry and an instruction offset in
        // it. Coverage is exhausted once fetchEntry reaches numEntries.
        unsigned fetchEntry = 0;
        unsigned fetchOffset = 0;

        /** Moves the IFU cursor @p n instructions along @p wpb. */
        void advance(const WpbStream &wpb, unsigned n);
    };

    /**
     * Drops stream @p s, which no session may hold: releases its
     * unconsumed reservations in log order, then empties its WPB and
     * Squash Log streams.
     */
    void dropStream(unsigned s);

    /** Ends the front session, dropping its stream. */
    void endFrontSession();

    /** Clears all sessions (squash / full invalidation). */
    void clearSessions();

    /** Detection for one block; enqueues a session on a hit. */
    void detect(Addr start_pc, Addr end_pc);

    ReuseConfig cfg_;
    FreeList &freeList_;
    Probe *probe_ = nullptr; //!< owning core's probe (not owned)
    Wpb wpb_;
    SquashLog log_;
    RgidAllocator rgids_;
    BloomFilter bloom_;
    std::deque<Session> sessions_;
    bool renameActive_ = false; //!< front session reached lockstep
    unsigned renameCursor_ = 0; //!< Squash Log cursor of front session

    // Scratch buffers reused across calls so the per-squash and
    // per-block paths do not allocate.
    std::vector<WpbEntry> ranges_; //!< onBranchSquash: squashed path
    std::vector<unsigned> order_;  //!< detect: candidate streams

    std::uint64_t squashEvents_ = 0;
    SeqNum lastRedirectBranchSeq_ = InvalidSeqNum;

    // Statistics.
    std::uint64_t detectCalls_ = 0;
    std::uint64_t detectEligible_ = 0;
    std::uint64_t reconvDetected_ = 0;
    std::uint64_t reconvSimple_ = 0;
    std::uint64_t reconvSoftware_ = 0;
    std::uint64_t reconvHardware_ = 0;
    std::uint64_t reconvBeyondLog_ = 0;
    Histogram distance_{8};
    std::uint64_t reuseTests_ = 0;
    std::uint64_t reuseLoads_ = 0;
    /** Failed tests by reason (reuse.fail*), every test counted. */
    struct
    {
        std::uint64_t killKind = 0, killNotExecuted = 0, killRgid = 0,
                      killRgidCapacity = 0, killBloom = 0;
    } failed_;
    std::uint64_t divergences_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t pressureReclaims_ = 0;
    std::uint64_t streamsCaptured_ = 0;

    // Funnel accounting (common/cpi_stack.hh): logged, covered,
    // tested, reused and the first-test kills. Each advances at most
    // once per squash-log entry (via the entry's covered/tested
    // flags), which keeps the funnel stages monotonically
    // non-increasing by construction.
    ReuseFunnel funnel_;
    Histogram reuseLag_{256};  //!< capture-to-reuse latency (cycles)
};

} // namespace mssr

#endif // MSSR_REUSE_REUSE_UNIT_HH
