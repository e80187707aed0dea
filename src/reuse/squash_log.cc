#include "reuse/squash_log.hh"

#include <algorithm>

#include "common/log.hh"

namespace mssr
{

SquashLog::SquashLog(unsigned num_streams, unsigned entries_per_stream)
    : streams_(num_streams), entriesPerStream_(entries_per_stream)
{
    mssr_assert(num_streams >= 1 && entries_per_stream >= 1);
    for (auto &s : streams_)
        s.entries.resize(entries_per_stream);
}

void
SquashLog::clearStream(unsigned s)
{
    mssr_assert(s < streams_.size());
    SquashLogStream &stream = streams_[s];
    std::fill_n(stream.entries.begin(), stream.numEntries, SquashLogEntry{});
    stream.numEntries = 0;
}

bool
SquashLog::append(unsigned s, const SquashLogEntry &entry)
{
    mssr_assert(s < streams_.size());
    SquashLogStream &stream = streams_[s];
    if (stream.numEntries >= entriesPerStream_)
        return false;
    stream.entries[stream.numEntries++] = entry;
    return true;
}

bool
SquashLog::allUnoccupied() const
{
    for (const auto &s : streams_)
        if (s.numEntries > 0)
            return false;
    return true;
}

} // namespace mssr
