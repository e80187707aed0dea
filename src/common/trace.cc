#include "common/trace.hh"

#include <algorithm>
#include <ostream>

#include "common/frame.hh"
#include "common/log.hh"

namespace mssr
{

const char *
toString(ProbeKind kind)
{
    switch (kind) {
      case ProbeKind::Fetch: return "fetch";
      case ProbeKind::Rename: return "rename";
      case ProbeKind::Issue: return "issue";
      case ProbeKind::Writeback: return "writeback";
      case ProbeKind::Commit: return "commit";
      case ProbeKind::Squash: return "squash";
      case ProbeKind::ReuseTest: return "reuse-test";
      case ProbeKind::Reconv: return "reconv";
      case ProbeKind::Verify: return "verify";
      case ProbeKind::SquashInst: return "squash-inst";
      case ProbeKind::Logged: return "logged";
      case ProbeKind::Covered: return "covered";
      case ProbeKind::SessionStart: return "session-start";
      case ProbeKind::RecoverySlots: return "recovery-slots";
    }
    return "?";
}

const char *
toString(ReuseOutcome outcome)
{
    switch (outcome) {
      case ReuseOutcome::None: return "none";
      case ReuseOutcome::Reused: return "reused";
      case ReuseOutcome::ReusedNeedVerify: return "reused+verify";
      case ReuseOutcome::FailRgid: return "fail-rgid";
      case ReuseOutcome::FailRgidCapacity: return "fail-rgid-capacity";
      case ReuseOutcome::FailNotExecuted: return "fail-not-executed";
      case ReuseOutcome::FailKind: return "fail-kind";
      case ReuseOutcome::FailBloom: return "fail-bloom";
      case ReuseOutcome::Divergence: return "divergence";
    }
    return "?";
}

const char *
toString(SquashReason reason)
{
    switch (reason) {
      case SquashReason::None: return "none";
      case SquashReason::BranchMispredict: return "branch-mispredict";
      case SquashReason::MemOrderViolation: return "mem-order";
      case SquashReason::ReuseVerifyFail: return "verify-fail";
    }
    return "?";
}

Tracer::Tracer(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1))
{
}

std::size_t
Tracer::size() const
{
    return std::min<std::uint64_t>(recorded_, ring_.size());
}

const TraceEvent &
Tracer::event(std::size_t i) const
{
    mssr_assert(i < size(), "trace event index out of range");
    const std::size_t oldest =
        recorded_ <= ring_.size() ? 0 : next_;
    return ring_[(oldest + i) % ring_.size()];
}

void
Tracer::clear()
{
    next_ = 0;
    recorded_ = 0;
}

namespace
{

void
writeHexPc(std::ostream &os, Addr pc)
{
    static const char digits[] = "0123456789abcdef";
    char buf[16];
    int n = 0;
    do {
        buf[n++] = digits[pc & 0xf];
        pc >>= 4;
    } while (pc != 0);
    os << "0x";
    while (n > 0)
        os << buf[--n];
}

void
writeChromeEvent(std::ostream &os, const TraceEvent &e, unsigned pid)
{
    os << "{\"name\": \"" << toString(e.stage)
       << "\", \"cat\": \"pipeline\", \"ph\": \"X\", \"ts\": " << e.cycle
       << ", \"dur\": 1, \"pid\": " << pid << ", \"tid\": "
       << static_cast<unsigned>(e.stage) << ", \"args\": {\"seq\": "
       << e.seq << ", \"pc\": \"";
    writeHexPc(os, e.pc);
    os << "\"";
    if (e.reuse != ReuseOutcome::None)
        os << ", \"reuse\": \"" << toString(e.reuse) << "\"";
    if (e.squash != SquashReason::None)
        os << ", \"squash\": \"" << toString(e.squash) << "\"";
    os << ", \"arg\": " << e.arg << "}}";
}

void
writeChromeMetadata(std::ostream &os, unsigned pid,
                    const std::string &label, bool &first)
{
    auto meta = [&](const std::string &name, unsigned tid,
                    const std::string &value) {
        os << (first ? "\n    " : ",\n    ");
        first = false;
        os << "{\"name\": \"" << name << "\", \"ph\": \"M\", \"pid\": "
           << pid << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
           << jsonEscape(value) << "\"}}";
    };
    meta("process_name", 0, label);
    for (unsigned s = 0; s <= static_cast<unsigned>(TraceStage::Verify);
         ++s)
        meta("thread_name", s, toString(static_cast<TraceStage>(s)));
}

} // namespace

void
Tracer::writeChromeJson(std::ostream &os, const std::string &label) const
{
    mssr::writeChromeJson(os, {{label, this}});
}

void
writeChromeJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, const Tracer *>> &jobs)
{
    os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
    bool first = true;
    for (std::size_t pid = 0; pid < jobs.size(); ++pid)
        writeChromeMetadata(os, static_cast<unsigned>(pid),
                            jobs[pid].first, first);
    for (std::size_t pid = 0; pid < jobs.size(); ++pid) {
        const Tracer &t = *jobs[pid].second;
        for (std::size_t i = 0; i < t.size(); ++i) {
            os << (first ? "\n    " : ",\n    ");
            first = false;
            writeChromeEvent(os, t.event(i), static_cast<unsigned>(pid));
        }
    }
    // Ring-wraparound losses per job (pid order): readers of a partial
    // trace can tell how many older events were overwritten.
    os << "\n  ],\n  \"dropped_events\": [";
    for (std::size_t pid = 0; pid < jobs.size(); ++pid)
        os << (pid == 0 ? "" : ", ") << jobs[pid].second->dropped();
    os << "]\n}\n";
}

void
Tracer::writeText(std::ostream &os, std::size_t last_n) const
{
    const std::size_t n = size();
    const std::size_t start = (last_n == 0 || last_n >= n) ? 0
                                                           : n - last_n;
    for (std::size_t i = start; i < n; ++i) {
        const TraceEvent &e = event(i);
        os << e.cycle << " " << toString(e.stage) << " [" << e.seq
           << "] ";
        writeHexPc(os, e.pc);
        if (e.reuse != ReuseOutcome::None)
            os << " reuse=" << toString(e.reuse);
        if (e.squash != SquashReason::None)
            os << " squash=" << toString(e.squash);
        if (e.arg != 0)
            os << " arg=" << e.arg;
        os << "\n";
    }
    if (dropped() != 0)
        os << "(" << dropped() << " older events dropped by the "
           << capacity() << "-entry ring)\n";
}

} // namespace mssr
