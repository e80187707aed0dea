#include "reuse/wpb.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace mssr
{

unsigned
WpbStream::numInsts() const
{
    unsigned n = 0;
    for (unsigned i = 0; i < numEntries; ++i)
        n += entries[i].numInsts();
    return n;
}

Wpb::Wpb(unsigned num_streams, unsigned entries_per_stream,
         bool restrict_vpn)
    : streams_(num_streams),
      entriesPerStream_(entries_per_stream),
      restrictVpn_(restrict_vpn)
{
    mssr_assert(num_streams >= 1);
    mssr_assert(entries_per_stream >= 1);
    for (auto &s : streams_)
        s.entries.resize(entries_per_stream);
}

unsigned
Wpb::writeStream(const std::vector<WpbEntry> &ranges,
                 SeqNum origin_branch_seq,
                 std::uint64_t squash_event_index)
{
    const unsigned s = writePtr_;
    writePtr_ = (writePtr_ + 1) % numStreams();

    invalidate(s);
    WpbStream &stream = streams_[s];
    stream.originBranchSeq = origin_branch_seq;
    stream.squashEventIndex = squash_event_index;
    stream.ageInsts = 0;

    if (ranges.empty())
        return s;

    stream.vpn = bits(ranges.front().startPC, 47, 12);
    unsigned filled = 0;
    for (const auto &range : ranges) {
        if (filled >= entriesPerStream_)
            break; // capacity: younger blocks are discarded
        if (restrictVpn_ && bits(range.startPC, 47, 12) != stream.vpn)
            break; // single-page restriction (section 3.4)
        stream.entries[filled++] = range;
    }
    stream.numEntries = filled;
    return s;
}

void
Wpb::invalidate(unsigned s)
{
    mssr_assert(s < streams_.size());
    streams_[s].numEntries = 0;
}

bool
Wpb::anyValid() const
{
    for (const auto &s : streams_)
        if (s.numEntries > 0)
            return true;
    return false;
}

} // namespace mssr
