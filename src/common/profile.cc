#include "common/profile.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/mini_json.hh"
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

using minijson::FormatError;
using minijson::JsonValue;
using minijson::u64Field;

/** The "pc" member of @p obj, a hexPc string. */
Addr
readPc(const JsonValue &obj)
{
    const std::string &s =
        minijson::field(obj, "pc", JsonValue::String).string;
    if (s.size() < 3 || s.size() > 18 || s.compare(0, 2, "0x") != 0 ||
        s.find_first_not_of("0123456789abcdef", 2) != std::string::npos)
        throw FormatError("PC '" + s + "' is not a 0x hex string");
    const Addr pc = std::stoull(s.substr(2), nullptr, 16);
    if (pc == 0)
        throw FormatError("PC 0 is not an instruction address");
    return pc;
}

BranchRecord
readBranch(const JsonValue &v)
{
    if (v.kind != JsonValue::Object)
        throw FormatError("branch entry is not an object");
    BranchRecord r;
    r.pc = readPc(v);
    r.mispredicts = u64Field(v, "mispredicts");
    r.otherSquashes = u64Field(v, "other_squashes");
    r.squashedInsts = u64Field(v, "squashed_insts");
    r.branchRecoverySlots = u64Field(v, "branch_recovery_slots");
    r.flushRecoverySlots = u64Field(v, "flush_recovery_slots");
    const ReuseFunnel f =
        readFunnel(minijson::field(v, "funnel", JsonValue::Object));
    r.logged = f.logged;
    r.covered = f.covered;
    r.tested = f.tested;
    r.reused = f.reused;
    r.killKind = f.killKind;
    r.killNotExecuted = f.killNotExecuted;
    r.killRgid = f.killRgid;
    r.killRgidCapacity = f.killRgidCapacity;
    r.killBloom = f.killBloom;
    // funnel() asserts its stage algebra, so check the kills fit under
    // tested first; then the record must reproduce the written funnel.
    const std::uint64_t rgidKills =
        f.killKind + f.killNotExecuted + f.killRgid + f.killRgidCapacity;
    if (rgidKills > f.tested || f.killBloom > f.tested - rgidKills)
        throw FormatError("branch funnel kills exceed tested");
    if (!(r.funnel() == f))
        throw FormatError("branch funnel does not follow its counters");

    const JsonValue &dist =
        minijson::field(v, "reconv_dist", JsonValue::Array);
    if (dist.array.size() != BranchRecord::NumDistBuckets)
        throw FormatError("reconv_dist does not have " +
                          std::to_string(BranchRecord::NumDistBuckets) +
                          " buckets");
    for (std::size_t i = 0; i < BranchRecord::NumDistBuckets; ++i)
        r.reconvDist[i] = minijson::asU64(dist.array[i], "reconv_dist");

    const JsonValue &partners =
        minijson::field(v, "partners", JsonValue::Array);
    if (partners.array.size() > BranchRecord::NumPartners)
        throw FormatError("more than " +
                          std::to_string(BranchRecord::NumPartners) +
                          " partners");
    for (std::size_t i = 0; i < partners.array.size(); ++i) {
        const JsonValue &p = partners.array[i];
        if (p.kind != JsonValue::Object)
            throw FormatError("partner entry is not an object");
        r.partnerPC[i] = readPc(p);
        r.partnerCount[i] = u64Field(p, "count");
    }
    return r;
}

} // namespace

std::string
hexPc(Addr pc)
{
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(pc));
    return buf;
}

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

PcProfile
readProfile(const JsonValue &v)
{
    PcProfile out;
    for (const JsonValue &b :
         minijson::field(v, "branches", JsonValue::Array).array) {
        try {
            const BranchRecord r = readBranch(b);
            if (out.branches().find(r.pc))
                throw FormatError("PC " + hexPc(r.pc) + " repeats");
            out.branches_.at(r.pc) = r;
        } catch (const FormatError &e) {
            throw FormatError("branch record " +
                              std::to_string(out.branches().size()) + ": " +
                              e.what());
        }
    }
    for (const JsonValue &r :
         minijson::field(v, "reconv_points", JsonValue::Array).array) {
        if (r.kind != JsonValue::Object)
            throw FormatError("reconv entry is not an object");
        ReconvRecord rec;
        rec.pc = readPc(r);
        if (out.reconvs().find(rec.pc))
            throw FormatError("reconv PC " + hexPc(rec.pc) + " repeats");
        rec.detections = u64Field(r, "detections");
        rec.sessions = u64Field(r, "sessions");
        rec.instsSalvaged = u64Field(r, "insts_salvaged");
        out.reconvs_.at(rec.pc) = rec;
    }
    // Reuses attributed to branches and salvage attributed to
    // reconvergence points count the same instructions.
    const std::uint64_t reused = out.total(&BranchRecord::reused);
    if (reused != out.totalSalvaged())
        throw FormatError("branch reuses (" + std::to_string(reused) +
                          ") != reconv salvage (" +
                          std::to_string(out.totalSalvaged()) + ")");
    return out;
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
