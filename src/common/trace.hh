/**
 * @file
 * The probe's event vocabulary -- what kind of step a ProbeEvent
 * reports, the reuse-test verdicts and the event record itself.
 *
 * The core and the reuse unit report every observable step as one
 * ProbeEvent through their probe (common/probe.hh), which hands it to
 * the PipeView (common/pipeview.hh: the one recorder behind the text
 * trace, the Chrome trace and the Kanata pipeview) and the PcProfile
 * (common/profile.hh).
 *
 * Events depend only on simulated state, never on host time or worker
 * scheduling, so the event stream of a job is bit-identical at any
 * MSSR_JOBS worker count.
 */

#ifndef MSSR_COMMON_TRACE_HH
#define MSSR_COMMON_TRACE_HH

#include <array>
#include <cstdint>

#include "common/cpi_stack.hh"
#include "common/types.hh"

namespace mssr
{

/**
 * What a ProbeEvent reports, and which fields it sets (the rest stay
 * zero). The first nine (Fetch .. Verify) are the trace events the
 * text and Chrome traces print; their order numbers the Chrome-trace
 * lanes.
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
 * One observable step: what the traces print (kind, verdict, squash
 * reason, cycle, seq, pc, arg), then the ids PipeView and PcProfile
 * attribute squashed work by.
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

} // namespace mssr

#endif // MSSR_COMMON_TRACE_HH
