/**
 * @file
 * Structured pipeline observability: the probe's event record, a typed
 * per-core trace event captured into a bounded ring buffer, an exporter
 * for the Chrome trace_event JSON format (chrome://tracing / Perfetto),
 * and the interval-statistics sample carried on RunResult.
 *
 * The core and the reuse unit report every observable step as one
 * ProbeEvent through their probe (common/probe.hh). The Tracer is one
 * of its three sinks: a core given a `Tracer *` (SimConfig::tracer, not
 * owned) hands it every event, and the tracer keeps the nine pipeline
 * kinds (fetch .. verify). The ring buffer is allocated once at
 * construction and onEvent() never allocates, so tracing is safe on
 * the simulation hot path and in long runs (the oldest events are
 * overwritten; dropped() reports how many).
 *
 * Event capture is deterministic: events depend only on simulated
 * state, never on host time or worker scheduling, so the event stream
 * of a job is bit-identical at any MSSR_JOBS worker count.
 */

#ifndef MSSR_COMMON_TRACE_HH
#define MSSR_COMMON_TRACE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/cpi_stack.hh"
#include "common/types.hh"

namespace mssr
{

/**
 * What a ProbeEvent reports, and which fields it sets (the rest stay
 * zero). The Tracer records the first nine, whose order numbers its
 * Chrome-trace lanes.
 */
enum class ProbeKind : std::uint8_t
{
    Fetch,      //!< entered the frontend pipe (aux = decode-ready cycle)
    Rename,     //!< renamed (arg = dest preg; reuse = Reused* if adopted)
    Issue,      //!< selected for execution (arg = 1 when verify re-exec)
    Writeback,  //!< result written back (arg = result value)
    Commit,     //!< retired (arg = result value; reuse = Reused if so)
    /** Pipeline flush applied: seq/pc = cause, squash = reason,
     *  arg = redirect PC, aux = instructions killed. */
    Squash,
    /** Rename-side reuse test ran: reuse = verdict, arg = the donor's
     *  dest preg, donorSeq, originPC, firstTest, aux = the session's
     *  reconvergence PC. */
    ReuseTest,
    /** Fetch-side reconvergence detected: pc = reconvergence PC,
     *  arg = stream distance, originPC, aux = squashed insts skipped. */
    Reconv,
    Verify,     //!< reused-load verification resolved (arg = 1 ok, 0 fail)

    SquashInst,    //!< one instruction flushed (squash = reason)
    Logged,        //!< appended to the squash log (seq = donor, originPC)
    Covered,       //!< log entry covered by a detection (ditto)
    SessionStart,  //!< reuse session reached rename (pc = reconv PC)
    RecoverySlots, //!< refill slots (pc = cause, squash, arg = slots)
};

/** Verdict of one rename-side reuse test (section 3.5). */
enum class ReuseOutcome : std::uint8_t
{
    None,             //!< no reuse session covered this instruction
    Reused,           //!< squashed result adopted
    ReusedNeedVerify, //!< load adopted, re-executes as verification op
    FailRgid,         //!< source RGID mismatch (inputs changed)
    FailRgidCapacity, //!< finite rgidBits window wrapped
    FailNotExecuted,  //!< squashed instruction never produced a value
    FailKind,         //!< not a reusable kind (store/control/no dest/consumed)
    FailBloom,        //!< Bloom filter reported a possible memory hazard
    Divergence,       //!< corrected stream diverged; session ended
};

const char *toString(ProbeKind kind);
const char *toString(ReuseOutcome outcome);
const char *toString(SquashReason reason);

/**
 * One observable step: what the Tracer records (TraceEvent), then the
 * ids PipeView and PcProfile attribute squashed work by.
 */
struct ProbeEvent
{
    ProbeKind kind = ProbeKind::Fetch;
    ReuseOutcome reuse = ReuseOutcome::None;
    bool firstTest = false;  //!< ReuseTest: the entry's first test
    SquashReason squash = SquashReason::None;
    Cycle cycle = 0;         //!< stamped by Probe::emit
    SeqNum seq = 0;          //!< 0 for events with no instruction
    Addr pc = 0;
    std::uint64_t arg = 0;

    SeqNum donorSeq = 0;     //!< squash-log donor of a reuse test
    Addr originPC = 0;       //!< branch whose squash captured the stream
    std::uint64_t aux = 0;   //!< second kind-specific payload
};

/** The tracer's name for the probe kinds it records (Fetch .. Verify). */
using TraceStage = ProbeKind;

/** One structured pipeline event. */
struct TraceEvent
{
    Cycle cycle = 0;
    SeqNum seq = 0;             //!< 0 for events with no instruction
    Addr pc = 0;
    std::uint64_t arg = 0;      //!< stage-specific payload (see ProbeKind)
    TraceStage stage = TraceStage::Fetch;
    ReuseOutcome reuse = ReuseOutcome::None;
    SquashReason squash = SquashReason::None;
};

/**
 * One interval-statistics sample: deltas over the last `cycles`
 * simulated cycles plus instantaneous structure occupancies. The
 * deltas of all samples of a run sum exactly to the end-of-run scalar
 * counters (the core flushes a final partial interval at halt).
 */
struct IntervalSample
{
    Cycle cycleEnd = 0;               //!< cycle at which the sample was taken
    Cycle cycles = 0;                 //!< interval length (may be short at end)
    std::uint64_t commits = 0;        //!< instructions committed in interval
    std::uint64_t squashedInsts = 0;  //!< instructions squashed in interval
    std::uint64_t squashEvents = 0;   //!< pipeline flushes in interval
    std::uint64_t reuseHits = 0;      //!< successful reuses/integrations
    double ipc = 0.0;                 //!< commits / cycles
    double wpbOccupancy = 0.0;        //!< WPB valid entries / capacity [0,1]
    double squashLogOccupancy = 0.0;  //!< Squash Log entries / capacity [0,1]
    /** Per-category dispatch slots charged within this interval (same
     *  order as CpiCat); sums to `cycles x dispatchWidth`. */
    std::array<std::uint64_t, NumCpiCats> cpiSlots{};
};

/**
 * Bounded per-core event recorder. One Tracer instruments exactly one
 * core (one BatchJob); it is not thread-safe and must not be shared
 * across concurrent jobs.
 */
class Tracer
{
  public:
    /** Allocates a ring of @p capacity events up front (>= 1). */
    explicit Tracer(std::size_t capacity = 1 << 16);

    /**
     * Restricts recording to event cycles in [@p start, @p end)
     * (end-exclusive): events outside the window are discarded before
     * they touch the ring, so they count neither as recorded nor as
     * dropped ("mssr_run --view-start-cycle/--view-cycles" uses
     * this). The default window is unbounded.
     */
    void
    setWindow(Cycle start, Cycle end)
    {
        winStart_ = start;
        winEnd_ = end;
    }

    /** Records @p e when it is a tracer kind (Fetch .. Verify) inside
     *  the window; overwrites the oldest event when full. Never
     *  allocates. */
    void
    onEvent(const ProbeEvent &e)
    {
        if (e.kind > ProbeKind::Verify || e.cycle < winStart_ ||
            e.cycle >= winEnd_)
            return;
        TraceEvent &t = ring_[next_];
        t.cycle = e.cycle;
        t.seq = e.seq;
        t.pc = e.pc;
        t.arg = e.arg;
        t.stage = e.kind;
        t.reuse = e.reuse;
        t.squash = e.squash;
        next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
        ++recorded_;
    }

    /** Events currently retained (<= capacity). */
    std::size_t size() const;
    std::size_t capacity() const { return ring_.size(); }
    /** Events recorded over the tracer's lifetime. */
    std::uint64_t recorded() const { return recorded_; }
    /** Events lost to ring wraparound. */
    std::uint64_t dropped() const
    {
        return recorded_ <= ring_.size() ? 0 : recorded_ - ring_.size();
    }

    /** Retained event @p i, 0 = oldest retained. */
    const TraceEvent &event(std::size_t i) const;

    /** Ring storage address; stable for the tracer's lifetime (lets
     *  tests assert onEvent() never reallocates). */
    const void *bufferAddress() const { return ring_.data(); }

    /** Forgets all retained events (capacity is kept). */
    void clear();

    /** @name Exporters */
    /// @{
    /**
     * Chrome trace_event JSON ("X" complete events, ts = cycle in us,
     * one tid lane per pipeline stage, plus a top-level
     * `dropped_events` array reporting ring-wraparound losses per
     * job). Load the file in chrome://tracing or
     * https://ui.perfetto.dev.
     */
    void writeChromeJson(std::ostream &os,
                         const std::string &label = "sim") const;

    /**
     * Human-readable lines, oldest first. @p last_n 0 writes all
     * retained events, otherwise only the newest @p last_n.
     */
    void writeText(std::ostream &os, std::size_t last_n = 0) const;
    /// @}

  private:
    std::vector<TraceEvent> ring_;
    std::size_t next_ = 0;         //!< ring slot the next event goes to
    std::uint64_t recorded_ = 0;
    Cycle winStart_ = 0;           //!< onEvent() window, end-exclusive
    Cycle winEnd_ = ~Cycle(0);
};

/**
 * Merges several jobs' event streams into one Chrome trace: each job
 * becomes a process (pid = job index, named via metadata events) so a
 * multi-workload `mssr_run --trace-out` loads as parallel tracks.
 */
void writeChromeJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, const Tracer *>> &jobs);

} // namespace mssr

#endif // MSSR_COMMON_TRACE_HH
