/**
 * @file
 * Per-instruction pipeline lifecycle recorder with squash-reuse lanes
 * and a Kanata (Konata visualizer) exporter.
 *
 * Where the Tracer (common/trace.hh) captures a bounded ring of
 * *events*, the PipeView keeps one record per fetched *instruction*
 * and stamps the cycle of every lifecycle step: fetch, decode-done,
 * rename (== dispatch in this core), issue, complete, commit, squash —
 * plus the MSSR-specific reuse lanes that make the paper's central
 * mechanism visible per instruction:
 *
 *   - logged:  the squashed instruction was appended to the squash log
 *   - covered: a later reconvergence detection covered its entry
 *   - tested:  the rename-side reuse test ran against its entry, with
 *              the verdict (reused / rgid kill / hazard kill / ...)
 *   - reused:  its value was adopted by a corrected-path instruction
 *   - salvage: adopter-side marker — the instruction was completed at
 *              rename by reuse and visibly skips the issue/complete
 *              stages (no re-execution)
 *
 * The viewer is one of the three sinks of the core's probe
 * (common/probe.hh): a core given a `PipeView *` (SimConfig::pipeview,
 * not owned) hands it every probe event through onEvent(). Simulated
 * results are bit-identical with the viewer on or off
 * (ctest-enforced).
 *
 * Output bounding: setWindow(start, end) selects instructions by
 * *fetch cycle* (end-exclusive); selected instructions are then
 * recorded through retirement so every emitted lifecycle is complete.
 * Sequence numbers are assigned in fetch order, so the selected
 * instructions hold one contiguous seq range and a record is found by
 * subtraction; nothing is stored for an instruction outside the
 * window. The lifecycle counters below count every event regardless
 * of the window, so they reconcile exactly with the core/ReuseFunnel
 * counters even when record storage is gated.
 *
 * Export is the Kanata 0004 text format understood by Konata
 * (https://github.com/shioyadan/Konata), preceded by a
 * `# mssr-pipeview-v1 {...}` header comment carrying build_info,
 * config, the gating window and the lifecycle counters
 * (docs/FORMATS.md section 11). Everything recorded depends only on
 * simulated state, so the exported file is byte-identical at any
 * MSSR_JOBS worker count.
 */

#ifndef MSSR_COMMON_PIPEVIEW_HH
#define MSSR_COMMON_PIPEVIEW_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/trace.hh"
#include "common/types.hh"

namespace mssr
{

/**
 * Per-instruction lifecycle recorder. One PipeView instruments exactly
 * one core (one BatchJob); it is not thread-safe and must not be
 * shared across concurrent jobs.
 */
class PipeView
{
  public:
    /** Sentinel cycle meaning "stage never reached". */
    static constexpr Cycle NoStamp = ~Cycle(0);

    /** Lifecycle of one dynamic instruction. */
    struct Record
    {
        SeqNum seq = 0;
        Addr pc = 0;
        Cycle fetch = NoStamp;    //!< entered the frontend pipe
        Cycle decode = NoStamp;   //!< decode done (rename-ready)
        Cycle rename = NoStamp;   //!< renamed + dispatched (one stage here)
        Cycle issue = NoStamp;    //!< selected for execution
        Cycle complete = NoStamp; //!< result written back
        Cycle commit = NoStamp;   //!< retired
        Cycle squash = NoStamp;   //!< flushed (reason below)
        SquashReason squashReason = SquashReason::None;

        // Squash-log (donor) lanes: this instruction was squashed and
        // its result lived on in the squash log.
        Cycle logged = NoStamp;   //!< appended to the squash log
        Cycle covered = NoStamp;  //!< reconvergence detection covered it
        Cycle tested = NoStamp;   //!< reuse test ran (verdict below)
        Cycle reuseDone = NoStamp; //!< value adopted by `adopterSeq`
        ReuseOutcome verdict = ReuseOutcome::None;
        SeqNum adopterSeq = 0;    //!< corrected-path adopter (when reused)

        // Salvage (adopter) lane: this instruction was completed at
        // rename by adopting `donorSeq`'s squashed result, so its
        // lifecycle has no issue/complete stamps (no re-execution),
        // except verify loads which re-issue as a verification op.
        Cycle salvage = NoStamp;
        SeqNum donorSeq = 0;
        bool needVerify = false;
    };

    /**
     * Lifecycle counters: every event counts here, window or not,
     * so each field reconciles exactly with the matching core /
     * ReuseFunnel counter (see tests/test_pipeview.cc).
     */
    struct Counts
    {
        std::uint64_t fetched = 0;
        std::uint64_t renamed = 0;
        std::uint64_t issued = 0;
        std::uint64_t completed = 0;
        std::uint64_t committed = 0;        //!< == core.committedInsts
        std::uint64_t squashed = 0;         //!< == core.squashedInsts
        std::uint64_t logged = 0;           //!< == funnel.logged
        std::uint64_t covered = 0;          //!< == funnel.covered
        std::uint64_t tested = 0;           //!< == funnel.tested
        std::uint64_t killKind = 0;         //!< == reuse.killKind
        std::uint64_t killNotExecuted = 0;  //!< == reuse.killNotExecuted
        std::uint64_t killRgid = 0;         //!< == reuse.killRgid
        std::uint64_t killRgidCapacity = 0; //!< == reuse.killRgidCapacity
        std::uint64_t killBloom = 0;        //!< == reuse.killBloom
        std::uint64_t reused = 0;           //!< == funnel.reused
    };

    PipeView() = default;

    /**
     * Bounds record storage to instructions fetched in
     * [@p start, @p end) (end-exclusive). An empty range keeps the
     * counters running but stores no records. Call before the run.
     */
    void
    setWindow(Cycle start, Cycle end)
    {
        winStart_ = start;
        winEnd_ = end;
    }

    /**
     * Takes one probe event: counts it and, when its instruction is
     * recorded, stamps the matching lifecycle step. Squash-reuse lane
     * events are keyed by the squashed donor's seq; a reuse also marks
     * its adopter salvaged.
     */
    void onEvent(const ProbeEvent &e);

    const Counts &counts() const { return counts_; }
    std::size_t numRecords() const { return records_.size(); }
    const Record &record(std::size_t i) const { return records_[i]; }
    /** Record for @p seq, or null when absent (outside the window). */
    const Record *
    findRecord(SeqNum seq) const
    {
        return const_cast<PipeView *>(this)->find(seq);
    }

    /**
     * Writes the Kanata 0004 log: `Kanata` version line, the
     * `# mssr-pipeview-v1` header comment, then I/L/S/E/R/W records
     * grouped by non-decreasing cycle (C=/C records). @p meta_fields
     * is an optional pre-rendered JSON fragment (e.g. `"build_info":
     * {...}, "config": {...}`) spliced into the header object.
     */
    void writeKanata(std::ostream &os,
                     const std::string &meta_fields = "") const;

  private:
    Record *
    find(SeqNum seq)
    {
        if (records_.empty() || seq < records_.front().seq)
            return nullptr;
        const std::uint64_t i = seq - records_.front().seq;
        return i < records_.size() ? &records_[i] : nullptr;
    }

    /** Bumps @p counter and stamps @p step on e.seq's record. */
    void count(std::uint64_t &counter, Cycle Record::*step,
               const ProbeEvent &e);

    std::vector<Record> records_; //!< one contiguous seq range
    Counts counts_;
    Cycle winStart_ = 0;
    Cycle winEnd_ = NoStamp;
};

} // namespace mssr

#endif // MSSR_COMMON_PIPEVIEW_HH
