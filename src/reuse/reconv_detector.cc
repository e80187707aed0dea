#include "reuse/reconv_detector.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace mssr
{

std::uint64_t
ReconvDetector::leftAlignerMask(const WpbStream &stream, Addr head_start)
{
    mssr_assert(stream.entries.size() <= 64);
    std::uint64_t out = 0;
    for (unsigned i = 0; i < stream.numEntries; ++i) {
        const WpbEntry &e = stream.entries[i];
        if (e.valid && head_start <= e.endPC)
            out |= std::uint64_t(1) << i;
    }
    return out;
}

std::uint64_t
ReconvDetector::rightAlignerMask(const WpbStream &stream, Addr head_end)
{
    mssr_assert(stream.entries.size() <= 64);
    std::uint64_t out = 0;
    for (unsigned i = 0; i < stream.numEntries; ++i) {
        const WpbEntry &e = stream.entries[i];
        if (e.valid && head_end >= e.startPC)
            out |= std::uint64_t(1) << i;
    }
    return out;
}

ReconvHit
ReconvDetector::match(const WpbStream &stream, Addr head_start,
                      Addr head_end, bool restrict_vpn)
{
    ReconvHit hit;
    if (!stream.valid)
        return hit;
    // VPN comparison runs in parallel with the range comparison when
    // the single-page restriction is enabled.
    if (restrict_vpn && bits(head_start, 47, 12) != stream.vpn)
        return hit;

    // Hardware path: aligner bit-masks + priority encoder (up to 64
    // entries, the realistic regime). Larger buffers -- used only for
    // the Figure-10 upper-bound study -- fall back to a direct scan of
    // the filled prefix with identical first-overlap semantics.
    unsigned idx = 0;
    if (stream.entries.size() <= 64) {
        const std::uint64_t overlapMask =
            leftAlignerMask(stream, head_start) &
            rightAlignerMask(stream, head_end);
        if (overlapMask == 0)
            return hit;
        while (!((overlapMask >> idx) & 1))
            ++idx;
    } else {
        while (idx < stream.numEntries &&
               !(head_start <= stream.entries[idx].endPC &&
                 head_end >= stream.entries[idx].startPC))
            ++idx;
        if (idx == stream.numEntries)
            return hit;
    }

    const WpbEntry &entry = stream.entries[idx];
    hit.found = true;
    hit.entryIdx = idx;
    hit.reconvPC = std::max(head_start, entry.startPC);

    // Instruction offset from the start of the squashed stream (used
    // by the Rename stage to position the Squash Log read pointer).
    unsigned offset = 0;
    for (unsigned i = 0; i < idx; ++i) {
        const WpbEntry &e = stream.entries[i];
        offset += static_cast<unsigned>((e.endPC - e.startPC) / InstBytes + 1);
    }
    offset += static_cast<unsigned>(
        (hit.reconvPC - entry.startPC) / InstBytes);
    hit.instOffset = offset;
    return hit;
}

} // namespace mssr
