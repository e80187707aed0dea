#include "reuse/reconv_detector.hh"

#include <algorithm>

#include "common/bitops.hh"

namespace mssr
{

ReconvHit
ReconvDetector::match(const WpbStream &stream, Addr head_start,
                      Addr head_end, bool restrict_vpn)
{
    ReconvHit hit;
    // VPN comparison runs in parallel with the range comparison when
    // the single-page restriction is enabled.
    if (restrict_vpn && bits(head_start, 47, 12) != stream.vpn)
        return hit;

    // The first entry both aligners accept is the one the priority
    // encoder picks. The instruction offset from the start of the
    // squashed stream (the Rename stage's Squash Log read pointer)
    // sums the entries before it.
    unsigned offset = 0;
    for (unsigned i = 0; i < stream.numEntries; ++i) {
        const WpbEntry &entry = stream.entries[i];
        if (head_start <= entry.endPC && head_end >= entry.startPC) {
            hit.found = true;
            hit.entryIdx = i;
            hit.reconvPC = std::max(head_start, entry.startPC);
            hit.instOffset = offset + static_cast<unsigned>(
                (hit.reconvPC - entry.startPC) / InstBytes);
            return hit;
        }
        offset += entry.numInsts();
    }
    return hit;
}

} // namespace mssr
