#include "common/trace.hh"

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

} // namespace mssr
