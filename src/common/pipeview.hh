/**
 * @file
 * The probe's one recorder: it holds the events of a run's window and
 * renders them three ways -- the `--trace` text, the `--trace-out`
 * Chrome trace_event JSON (chrome://tracing / Perfetto) and the
 * `--pipeview-out` Kanata log for the Konata visualizer.
 *
 * The Kanata log draws one row per fetched instruction and stamps the
 * cycle of every lifecycle step: fetch, decode-done, rename (==
 * dispatch in this core), issue, complete, commit, squash -- plus the
 * MSSR-specific reuse lanes that make the paper's central mechanism
 * visible per instruction:
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
 * The recorder holds events, not rows, because a row loses what the
 * traces print: a load that stalls on a partial store overlap issues
 * twice, a squash-log entry can be tested more than once, and trace
 * lines carry destination pregs and result values. The rows are built
 * from the held events when the Kanata log is written.
 *
 * The recorder is one of the two sinks of the core's probe
 * (common/probe.hh): a core given a `PipeView *` (SimConfig::pipeview,
 * not owned) hands it every probe event through onEvent(). Simulated
 * results are bit-identical with the recorder on or off
 * (ctest-enforced).
 *
 * One window rule: setWindow(start, end) holds an event when the
 * instruction it names was fetched in [start, end) (end-exclusive), so
 * a held instruction is followed through retirement and every drawn
 * lifecycle is complete. A reuse test names two instructions, the
 * adopter (seq) and the donor (donorSeq), and is held when either was.
 * An event that names no instruction (reconvergence, session start,
 * recovery slots) is held when its cycle is in the window. Sequence
 * numbers are assigned in fetch order, so the held instructions are
 * one contiguous seq range and the rule is two compares. The
 * lifecycle counters count every event regardless of the window, so
 * they reconcile exactly with the core/ReuseFunnel counters.
 *
 * What a recorder feeds sets its bound. One that writes Kanata holds
 * every event of its window. One that feeds only the traces holds the
 * newest kTraceEvents trace events (Fetch .. Verify) in storage
 * reserved at construction, so onEvent() never allocates and a long
 * run costs no more than a short one. Either way the traces print the
 * newest kTraceEvents trace events and report the older ones as
 * dropped, so their bytes do not depend on whether Kanata is written
 * too.
 *
 * The Kanata log is the Kanata 0004 text format understood by Konata
 * (https://github.com/shioyadan/Konata), preceded by a
 * `# mssr-pipeview-v1 {...}` header comment carrying build_info,
 * config, the window and the lifecycle counters (docs/FORMATS.md
 * section 11). Everything recorded depends only on simulated state,
 * so every rendering is byte-identical at any MSSR_JOBS worker count.
 */

#ifndef MSSR_COMMON_PIPEVIEW_HH
#define MSSR_COMMON_PIPEVIEW_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.hh"
#include "common/types.hh"

namespace mssr
{

/**
 * The probe's event recorder. One PipeView instruments exactly one
 * core (one BatchJob); it is not thread-safe and must not be shared
 * across concurrent jobs.
 */
class PipeView
{
  public:
    /** Sentinel cycle meaning "stage never reached". */
    static constexpr Cycle NoStamp = ~Cycle(0);

    /** The traces print the newest this many trace events. */
    static constexpr std::size_t kTraceEvents = std::size_t(1) << 16;

    /** The renderings a recorder feeds; they set what it holds. */
    struct Feeds
    {
        bool kanata = false; //!< writeKanata(): hold the whole window
        bool trace = false;  //!< writeText() / writeChromeJson()
    };

    /** Lifecycle of one dynamic instruction: one Kanata row. */
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

    /** A recorder feeding only the traces reserves its kTraceEvents
     *  events here; one feeding Kanata grows with its window. */
    explicit PipeView(Feeds feeds);
    /** A recorder that feeds Kanata. */
    PipeView() : PipeView(Feeds{.kanata = true}) {}

    /**
     * Holds only the events of instructions fetched in
     * [@p start, @p end) (end-exclusive) and the instruction-less
     * events of those cycles (the file comment's window rule). An
     * empty range keeps the counters running but holds nothing. Call
     * before the run.
     */
    void
    setWindow(Cycle start, Cycle end)
    {
        winStart_ = start;
        winEnd_ = end;
    }

    /** Counts one probe event and holds it when the window does. */
    void onEvent(const ProbeEvent &e);

    const Feeds &feeds() const { return feeds_; }
    const Counts &counts() const { return counts_; }

    /** Trace events (Fetch .. Verify) held over the recorder's life. */
    std::uint64_t recorded() const { return recorded_; }
    /** Held trace events the traces leave out: all but the newest
     *  kTraceEvents. */
    std::uint64_t
    dropped() const
    {
        return recorded_ <= kTraceEvents ? 0 : recorded_ - kTraceEvents;
    }

    /** Event storage address; a trace-only recorder keeps it for life
     *  (lets tests assert onEvent() never reallocates). */
    const void *bufferAddress() const { return events_.data(); }

    /** Calls @p fn on each trace event the traces print (the newest
     *  kTraceEvents held ones), oldest first. */
    template <typename Fn>
    void
    forEachTraceEvent(Fn fn) const
    {
        // A trace-only recorder's ring holds exactly those events, its
        // oldest at next_ once full; a Kanata recorder holds every
        // window event, so it skips the dropped trace events first.
        std::uint64_t skip = feeds_.kanata ? dropped() : 0;
        const std::size_t n = events_.size();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = next_ + k < n ? next_ + k : next_ + k - n;
            const ProbeEvent &e = events_[i];
            if (e.kind > ProbeKind::Verify)
                continue;
            if (skip != 0) {
                --skip;
                continue;
            }
            fn(e);
        }
    }

    /** The Kanata rows, built from the held events in fetch order.
     *  Only a recorder that feeds Kanata holds whole rows. */
    std::vector<Record> records() const;

    /** The row of @p seq in @p rows (one contiguous seq range, as
     *  records() builds them), or null when absent. */
    static const Record *findRecord(const std::vector<Record> &rows,
                                    SeqNum seq);

    /**
     * Writes the Kanata 0004 log: `Kanata` version line, the
     * `# mssr-pipeview-v1` header comment, then I/L/S/E/R/W records
     * grouped by non-decreasing cycle (C=/C records). @p meta_fields
     * is an optional pre-rendered JSON fragment (e.g. `"build_info":
     * {...}, "config": {...}`) spliced into the header object.
     * Returns the number of rows written.
     */
    std::size_t writeKanata(std::ostream &os,
                            const std::string &meta_fields = "") const;

    /**
     * The text trace: one line per printed trace event, oldest first,
     * then a note of the dropped ones. @p last_n 0 writes every
     * printed event, otherwise only the newest @p last_n.
     */
    void writeText(std::ostream &os, std::size_t last_n = 0) const;

  private:
    /** Applies the window rule to @p e, tracking the held seq range. */
    bool inWindow(const ProbeEvent &e);

    Feeds feeds_;
    /** Held events in arrival order; a ring of trace events when the
     *  recorder feeds no Kanata. */
    std::vector<ProbeEvent> events_;
    std::size_t next_ = 0;        //!< ring slot the next event overwrites
    std::uint64_t recorded_ = 0;
    Counts counts_;
    Cycle winStart_ = 0;
    Cycle winEnd_ = NoStamp;
    /** Seqs fetched inside the window; firstSeq_ 0 until one is. */
    SeqNum firstSeq_ = 0;
    SeqNum lastSeq_ = 0;
};

/**
 * Merges several jobs' trace events into one Chrome trace_event JSON
 * file ("X" complete events, ts = cycle in us, one tid lane per trace
 * kind): each job becomes a process (pid = job index, named by
 * metadata events) so a multi-workload `mssr_run --trace-out` loads as
 * parallel tracks. A top-level `dropped_events` array reports each
 * job's dropped trace events, in pid order.
 */
void writeChromeJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, const PipeView *>> &jobs);

} // namespace mssr

#endif // MSSR_COMMON_PIPEVIEW_HH
