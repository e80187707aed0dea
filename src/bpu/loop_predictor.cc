#include "bpu/loop_predictor.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace mssr
{

LoopPredictor::LoopPredictor(unsigned entries, unsigned conf_threshold,
                             unsigned min_trip)
    : entries_(entries), indexBits_(log2floor(entries)),
      confThreshold_(conf_threshold), minTrip_(min_trip)
{
    mssr_assert(isPow2(entries));
}

std::size_t
LoopPredictor::index(Addr pc) const
{
    return (pc / InstBytes) & (entries_.size() - 1);
}

std::uint32_t
LoopPredictor::tagOf(Addr pc) const
{
    return static_cast<std::uint32_t>(
        (pc / InstBytes) >> indexBits_);
}

LoopPredictor::Prediction
LoopPredictor::predict(Addr pc) const
{
    const Entry &e = entries_[index(pc)];
    Prediction out;
    if (!e.valid || e.tag != tagOf(pc) || e.conf < confThreshold_ ||
        e.tripCount < minTrip_) {
        return out;
    }
    out.valid = true;
    // Taken while below the learned trip count; exit exactly at it.
    out.taken = e.specIter + 1 < e.tripCount;
    return out;
}

void
LoopPredictor::specUpdate(Addr pc, bool taken)
{
    Entry &e = entries_[index(pc)];
    if (!e.valid || e.tag != tagOf(pc))
        return;
    if (taken)
        ++e.specIter;
    else
        e.specIter = 0;
}

void
LoopPredictor::squash()
{
    for (Entry &e : entries_)
        e.specIter = e.archIter;
}

void
LoopPredictor::commitUpdate(Addr pc, bool taken)
{
    Entry &e = entries_[index(pc)];
    const std::uint32_t tag = tagOf(pc);
    if (!e.valid || e.tag != tag) {
        // Allocate only on a not-taken outcome (a potential loop exit),
        // so tripCount learning starts from a clean iteration boundary.
        if (!taken) {
            e.valid = true;
            e.tag = tag;
            e.tripCount = 0;
            e.archIter = 0;
            e.specIter = 0;
            e.conf = 0;
        }
        return;
    }
    if (taken) {
        ++e.archIter;
        if (e.archIter == 0xffff) { // runaway loop, stop tracking
            e.valid = false;
            return;
        }
    } else {
        const std::uint16_t observed =
            static_cast<std::uint16_t>(e.archIter + 1);
        if (e.tripCount == observed) {
            if (e.conf < 15)
                ++e.conf;
        } else {
            e.tripCount = observed;
            e.conf = 0;
        }
        e.archIter = 0;
    }
    e.specIter = e.archIter;
}

} // namespace mssr
