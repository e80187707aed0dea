/**
 * @file
 * One instrumentation probe for the simulated machine. The core and
 * the reuse unit report each observable step once, as a ProbeEvent
 * (common/trace.hh), through one Probe, which stamps the cycle and
 * hands the event to both of its sinks when attached: the PipeView
 * (common/pipeview.hh, the recorder behind the text trace, the Chrome
 * trace and the Kanata pipeview) and the PcProfile
 * (common/profile.hh). Each sink takes events through one onEvent()
 * and skips the kinds it does not record. A site holds a `Probe *`
 * that is null when no sink is attached, so a disabled site costs one
 * branch and builds no event.
 */

#ifndef MSSR_COMMON_PROBE_HH
#define MSSR_COMMON_PROBE_HH

#include <cstdint>

#include "common/pipeview.hh"
#include "common/profile.hh"

namespace mssr
{

/** True for the two verdicts that adopt the donor's value. */
inline bool
isReuse(ReuseOutcome verdict)
{
    return verdict == ReuseOutcome::Reused ||
           verdict == ReuseOutcome::ReusedNeedVerify;
}

/**
 * The one verdict -> kill rule: bumps the kill counter of @p tally that
 * a failed reuse test's @p verdict names. ReuseFunnel, BranchRecord and
 * PipeView::Counts name their kill counters alike.
 */
template <typename Tally>
void
countKill(Tally &tally, ReuseOutcome verdict)
{
    switch (verdict) {
      case ReuseOutcome::FailKind: ++tally.killKind; break;
      case ReuseOutcome::FailNotExecuted: ++tally.killNotExecuted; break;
      case ReuseOutcome::FailRgid: ++tally.killRgid; break;
      case ReuseOutcome::FailRgidCapacity: ++tally.killRgidCapacity; break;
      case ReuseOutcome::FailBloom: ++tally.killBloom; break;
      default: break;
    }
}

/** Hands one core's events to its sinks (not thread-safe). */
class Probe
{
  public:
    /** Either sink may be null. */
    Probe(PipeView *pipeview, PcProfile *profile)
        : pipeview_(pipeview), profile_(profile)
    {
    }

    /** Simulated cycle stamped on subsequent events. */
    void setCycle(Cycle c) { cycle_ = c; }

    /** Stamps @p e with the cycle and forwards it to each sink. */
    void
    emit(ProbeEvent e) const
    {
        e.cycle = cycle_;
        if (pipeview_)
            pipeview_->onEvent(e);
        if (profile_)
            profile_->onEvent(e);
    }

  private:
    PipeView *pipeview_;
    PcProfile *profile_;
    Cycle cycle_ = 0;
};

} // namespace mssr

#endif // MSSR_COMMON_PROBE_HH
