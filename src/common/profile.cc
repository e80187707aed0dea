#include "common/profile.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/probe.hh"

namespace mssr
{

namespace
{

/** Distance histogram bucket for @p inst_offset (0,1,2-3,..,>=64). */
std::size_t
distBucket(unsigned inst_offset)
{
    std::size_t b = 0;
    while (b + 1 < BranchRecord::NumDistBuckets &&
           inst_offset >= (1u << b))
        ++b;
    return inst_offset == 0 ? 0 : b;
}

std::string
hexPc(Addr pc)
{
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(pc));
    return buf;
}

} // namespace

void
BranchRecord::noteDetection(Addr reconv_pc, unsigned inst_offset)
{
    ++reconvDist[distBucket(inst_offset)];

    // Space-saving partner counters: bump an existing partner, fill an
    // empty slot, or evict-and-inherit the smallest counter (ties
    // broken toward the lowest slot index -- deterministic).
    std::size_t smallest = 0;
    for (std::size_t i = 0; i < NumPartners; ++i) {
        if (partnerPC[i] == reconv_pc) {
            ++partnerCount[i];
            return;
        }
        if (partnerPC[i] == 0) {
            partnerPC[i] = reconv_pc;
            partnerCount[i] = 1;
            return;
        }
        if (partnerCount[i] < partnerCount[smallest])
            smallest = i;
    }
    partnerPC[smallest] = reconv_pc;
    ++partnerCount[smallest];
}

Addr
BranchRecord::topPartner(std::uint64_t *count_out) const
{
    Addr best = 0;
    std::uint64_t bestCount = 0;
    for (std::size_t i = 0; i < NumPartners; ++i) {
        if (partnerPC[i] == 0)
            continue;
        if (partnerCount[i] > bestCount ||
            (partnerCount[i] == bestCount && partnerPC[i] < best)) {
            best = partnerPC[i];
            bestCount = partnerCount[i];
        }
    }
    if (count_out)
        *count_out = bestCount;
    return best;
}

void
PcProfile::onEvent(const ProbeEvent &e)
{
    const bool mispredict = e.squash == SquashReason::BranchMispredict;
    switch (e.kind) {
      case ProbeKind::Squash: {
        BranchRecord &r = branches_.at(e.pc);
        ++(mispredict ? r.mispredicts : r.otherSquashes);
        r.squashedInsts += e.aux;
        return;
      }
      case ProbeKind::RecoverySlots: {
        // The same charge the CPI stack takes, category included.
        BranchRecord &r = branches_.at(e.pc);
        (mispredict ? r.branchRecoverySlots : r.flushRecoverySlots) +=
            e.arg;
        return;
      }
      case ProbeKind::Logged:
        ++branches_.at(e.originPC).logged;
        return;
      case ProbeKind::Covered:
        ++branches_.at(e.originPC).covered;
        return;
      case ProbeKind::Reconv:
        branches_.at(e.originPC).noteDetection(
            e.pc, static_cast<unsigned>(e.aux));
        ++reconvs_.at(e.pc).detections;
        return;
      case ProbeKind::SessionStart:
        ++reconvs_.at(e.pc).sessions;
        return;
      case ProbeKind::ReuseTest: {
        // Only an entry's first test counts, as in the global funnel.
        if (!e.firstTest)
            return;
        BranchRecord &r = branches_.at(e.originPC);
        ++r.tested;
        countKill(r, e.reuse);
        if (isReuse(e.reuse)) {
            ++r.reused;
            ++reconvs_.at(e.aux).instsSalvaged;
        }
        return;
      }
      default:
        return;
    }
}

ReuseFunnel
BranchRecord::funnel() const
{
    ReuseFunnel f;
    f.squashed = squashedInsts;
    f.logged = logged;
    f.covered = covered;
    f.tested = tested;
    f.killKind = killKind;
    f.killNotExecuted = killNotExecuted;
    f.killRgid = killRgid;
    f.killRgidCapacity = killRgidCapacity;
    f.killBloom = killBloom;
    const std::uint64_t rgidKills =
        killKind + killNotExecuted + killRgid + killRgidCapacity;
    mssr_assert(tested >= rgidKills, "per-branch funnel stage algebra");
    f.rgidPass = tested - rgidKills;
    mssr_assert(f.rgidPass >= killBloom, "per-branch funnel stage algebra");
    f.hazardPass = f.rgidPass - killBloom;
    f.reused = reused;
    return f;
}

std::uint64_t
PcProfile::total(std::uint64_t BranchRecord::*counter) const
{
    std::uint64_t sum = 0;
    for (const BranchRecord *r : branches_.sortedByPc())
        sum += r->*counter;
    return sum;
}

std::uint64_t
PcProfile::totalSalvaged() const
{
    std::uint64_t sum = 0;
    for (const ReconvRecord *r : reconvs_.sortedByPc())
        sum += r->instsSalvaged;
    return sum;
}

void
writeJson(std::ostream &os, const PcProfile &profile)
{
    os << "{\"branches\": [";
    bool first = true;
    for (const BranchRecord *r : profile.branches().sortedByPc()) {
        os << (first ? "" : ", ") << "{\"pc\": \"" << hexPc(r->pc)
           << "\", \"mispredicts\": " << r->mispredicts
           << ", \"other_squashes\": " << r->otherSquashes
           << ", \"squashed_insts\": " << r->squashedInsts
           << ", \"branch_recovery_slots\": " << r->branchRecoverySlots
           << ", \"flush_recovery_slots\": " << r->flushRecoverySlots
           << ", \"funnel\": ";
        writeJson(os, r->funnel());
        os << ", \"reconv_dist\": [";
        for (std::size_t i = 0; i < BranchRecord::NumDistBuckets; ++i)
            os << (i ? ", " : "") << r->reconvDist[i];
        os << "], \"partners\": [";
        bool firstPartner = true;
        // Partners sorted by PC for byte-stable output.
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < BranchRecord::NumPartners; ++i)
            if (r->partnerPC[i] != 0)
                order.push_back(i);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return r->partnerPC[a] < r->partnerPC[b];
                  });
        for (std::size_t i : order) {
            os << (firstPartner ? "" : ", ") << "{\"pc\": \""
               << hexPc(r->partnerPC[i]) << "\", \"count\": "
               << r->partnerCount[i] << "}";
            firstPartner = false;
        }
        os << "]}";
        first = false;
    }
    os << "], \"reconv_points\": [";
    first = true;
    for (const ReconvRecord *r : profile.reconvs().sortedByPc()) {
        os << (first ? "" : ", ") << "{\"pc\": \"" << hexPc(r->pc)
           << "\", \"detections\": " << r->detections
           << ", \"sessions\": " << r->sessions
           << ", \"insts_salvaged\": " << r->instsSalvaged << "}";
        first = false;
    }
    os << "]}";
}

void
writeFolded(std::ostream &os, const PcProfile &profile,
            const std::string &run)
{
    // One line per (branch, frame) with a positive slot count. The
    // stack reads root -> leaf: branch PC; reconvergence partner (or
    // "-"); category, with an optional run-name root frame for multi-
    // workload files. Values are dispatch slots (reused insts occupy
    // one salvaged slot each), so recovery cost and salvage show up in
    // one flamegraph on a common scale.
    const std::string root = run.empty() ? std::string() : run + ";";
    for (const BranchRecord *r : profile.branches().sortedByPc()) {
        const std::string prefix = root + hexPc(r->pc) + ";";
        if (r->branchRecoverySlots)
            os << prefix << "-;branch_recovery " << r->branchRecoverySlots
               << "\n";
        if (r->flushRecoverySlots)
            os << prefix << "-;flush_recovery " << r->flushRecoverySlots
               << "\n";
        if (r->reused) {
            const Addr top = r->topPartner();
            os << prefix << (top ? hexPc(top) : std::string("-"))
               << ";reuse_salvaged " << r->reused << "\n";
        }
    }
}

} // namespace mssr
