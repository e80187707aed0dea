/**
 * @file
 * Per-PC hot-spot profiler: the third attribution axis (location)
 * next to the temporal CPI stack and the causal reuse funnel.
 *
 * The CPI stack answers "how many dispatch slots went to branch
 * recovery"; the funnel answers "where squashed instructions died on
 * the way to reuse"; this profiler answers "which static branches and
 * reconvergence points are responsible". Every squash, every recovery
 * slot, every squash-log entry and every reuse-test verdict is
 * attributed to the static PC of the squash cause (branch records),
 * and every reconvergence detection and salvaged instruction to the
 * reconvergence PC (reconvergence records) -- the per-branch view the
 * paper's evaluation is built around (gem5's per-PC stats, top-down
 * attribution a la Yasin).
 *
 * Records live in a deterministic open-addressed hash map keyed by
 * static PC. Determinism: insertion happens on the single-threaded
 * simulation path, growth doubles a power-of-two table, and every
 * export walks the records sorted by PC, so the serialized profile is
 * byte-identical at any batch worker count.
 *
 * Reconciliation (ctest-enforced): summed over all branch records,
 * squashed insts == core.squashedInsts, reused == reuse.success, and
 * branch/flush recovery slots == the CPI stack's BranchRecovery/
 * FlushRecovery categories -- exactly, with no "other" PC bucket.
 * The profile is one of the three sinks of the core's probe
 * (common/probe.hh): under SimConfig::profiling the core owns one and
 * hands it every probe event through onEvent().
 */

#ifndef MSSR_COMMON_PROFILE_HH
#define MSSR_COMMON_PROFILE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/cpi_stack.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "common/types.hh"

namespace mssr
{

/**
 * Per-squash-cause-PC record. "Branch" record for short: branch
 * mispredictions dominate, but memory-order and verify-fail squashes
 * are attributed to their causing load's PC through the same record
 * type so the per-PC totals reconcile with the core's counters
 * without a fudge bucket.
 */
struct BranchRecord
{
    /** log2-ish buckets of the reconvergence offset (squashed insts
     *  skipped before the reconvergence point): 0, 1, 2-3, 4-7, 8-15,
     *  16-31, 32-63, >=64. */
    static constexpr std::size_t NumDistBuckets = 8;
    /** Tracked reconvergence-PC partners (space-saving counters). */
    static constexpr std::size_t NumPartners = 4;

    Addr pc = 0;

    // Squash attribution (all squash reasons, applySquash).
    std::uint64_t mispredicts = 0;    //!< branch-mispredict squashes
    std::uint64_t otherSquashes = 0;  //!< mem-order / verify-fail squashes
    std::uint64_t squashedInsts = 0;  //!< insts killed by those squashes

    // Recovery attribution: dispatch slots charged while the frontend
    // refills from this PC's squash (the CPI-stack recovery window).
    std::uint64_t branchRecoverySlots = 0;
    std::uint64_t flushRecoverySlots = 0;

    // Mini reuse funnel over the squash-log entries of streams this
    // branch's squashes captured. rgidPass/hazardPass are derived
    // (same algebra as the global funnel), see funnel().
    std::uint64_t logged = 0;
    std::uint64_t covered = 0;
    std::uint64_t tested = 0;
    std::uint64_t reused = 0;
    std::uint64_t killKind = 0;
    std::uint64_t killNotExecuted = 0;
    std::uint64_t killRgid = 0;
    std::uint64_t killRgidCapacity = 0;
    std::uint64_t killBloom = 0;

    // Reconvergence-distance histogram over this branch's detections.
    std::array<std::uint64_t, NumDistBuckets> reconvDist{};

    // Top reconvergence partners: space-saving counters (detection
    // counts; the smallest counter is evicted-and-inherited when a new
    // partner appears and the table is full).
    std::array<Addr, NumPartners> partnerPC{};
    std::array<std::uint64_t, NumPartners> partnerCount{};

    /** Records one reconvergence detection at @p reconv_pc that skips
     *  @p inst_offset squashed instructions. */
    void noteDetection(Addr reconv_pc, unsigned inst_offset);

    /** Partner reconvergence PC with the highest detection count
     *  (lowest PC on ties); 0 when no detection was recorded. */
    Addr topPartner(std::uint64_t *count_out = nullptr) const;

    /** Recovery slots of both kinds charged to this PC's squashes. */
    std::uint64_t
    recoverySlots() const
    {
        return branchRecoverySlots + flushRecoverySlots;
    }

    /**
     * This branch's slice of the reuse funnel. squashed..tested and
     * the kill counters are stored; rgidPass/hazardPass/reused follow
     * the exact global stage algebra. verifyOk/verifyFail stay zero
     * (verification is not attributed per branch).
     */
    ReuseFunnel funnel() const;

    bool operator==(const BranchRecord &) const = default;
};

/** Per-reconvergence-PC record. */
struct ReconvRecord
{
    Addr pc = 0;
    std::uint64_t detections = 0;    //!< fetch-side reconvergence hits
    std::uint64_t sessions = 0;      //!< sessions that reached rename here
    std::uint64_t instsSalvaged = 0; //!< reuses adopted under those sessions

    bool operator==(const ReconvRecord &) const = default;
};

/**
 * Deterministic open-addressed map from static PC to a record.
 * Linear probing over a power-of-two table; grows at 70% load. The
 * value type needs a public `Addr pc` field (0 = empty slot sentinel;
 * PC 0 is never a valid instruction address, code starts at
 * Program::DefaultCodeBase).
 */
template <typename Record>
class PcMap
{
  public:
    PcMap() : slots_(InitialSlots) {}

    /** Record for @p pc, inserted zero-initialized when absent. */
    Record &
    at(Addr pc)
    {
        mssr_assert(pc != 0, "PC 0 is the empty-slot sentinel");
        if ((size_ + 1) * 10 > slots_.size() * 7)
            grow();
        const std::size_t i = probe(pc);
        if (slots_[i].pc == 0) {
            slots_[i].pc = pc;
            ++size_;
        }
        return slots_[i];
    }

    /** Record for @p pc, or null when absent. */
    const Record *
    find(Addr pc) const
    {
        if (pc == 0)
            return nullptr;
        const std::size_t i = probe(pc);
        return slots_[i].pc == pc ? &slots_[i] : nullptr;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** All records, sorted by PC (the deterministic export order). */
    std::vector<const Record *> sortedByPc() const;

    /** Equal contents (order-independent). */
    bool operator==(const PcMap &other) const;

  private:
    static constexpr std::size_t InitialSlots = 64;

    /** splitmix64 finalizer: full-avalanche, deterministic. */
    static std::uint64_t
    hash(Addr pc)
    {
        std::uint64_t x = pc;
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    /** First slot holding @p pc or the first empty slot of its chain. */
    std::size_t
    probe(Addr pc) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(hash(pc)) & mask;
        while (slots_[i].pc != 0 && slots_[i].pc != pc)
            i = (i + 1) & mask;
        return i;
    }

    void grow();

    std::vector<Record> slots_;
    std::size_t size_ = 0;
};

template <typename Record>
std::vector<const Record *>
PcMap<Record>::sortedByPc() const
{
    std::vector<const Record *> out;
    out.reserve(size_);
    for (const Record &r : slots_)
        if (r.pc != 0)
            out.push_back(&r);
    std::sort(out.begin(), out.end(),
              [](const Record *a, const Record *b) { return a->pc < b->pc; });
    return out;
}

template <typename Record>
bool
PcMap<Record>::operator==(const PcMap &other) const
{
    if (size_ != other.size_)
        return false;
    for (const Record &r : slots_) {
        if (r.pc == 0)
            continue;
        const Record *o = other.find(r.pc);
        if (!o || !(r == *o))
            return false;
    }
    return true;
}

template <typename Record>
void
PcMap<Record>::grow()
{
    std::vector<Record> old = std::move(slots_);
    slots_.assign(old.size() * 2, Record{});
    for (const Record &r : old) {
        if (r.pc == 0)
            continue;
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(hash(r.pc)) & mask;
        while (slots_[i].pc != 0)
            i = (i + 1) & mask;
        slots_[i] = r;
    }
}

/**
 * The per-run profile: branch (squash-cause) records plus
 * reconvergence-point records, filled from the core's probe events.
 * One PcProfile belongs to exactly one core (not thread-safe, like the
 * Tracer).
 */
class PcProfile
{
  public:
    /**
     * Takes one probe event. Squashes and recovery slots are charged
     * to the causing PC; squash-log, coverage and first-test events to
     * the origin branch of the stream involved; detections, session
     * starts and salvaged instructions also to the reconvergence PC.
     */
    void onEvent(const ProbeEvent &e);

    const PcMap<BranchRecord> &branches() const { return branches_; }
    const PcMap<ReconvRecord> &reconvs() const { return reconvs_; }

    /** True when nothing was recorded (profiling off or no squashes). */
    bool empty() const { return branches_.empty() && reconvs_.empty(); }

    /**
     * Sum of the named counter over all branch records -- the left-
     * hand sides of the reconciliation invariants (squashedInsts ==
     * core.squashedInsts, reused == reuse.success, recovery slots ==
     * the CPI stack's recovery categories).
     */
    std::uint64_t total(std::uint64_t BranchRecord::*counter) const;

    /** Salvaged-instruction sum over all reconvergence records. */
    std::uint64_t totalSalvaged() const;


    bool
    operator==(const PcProfile &other) const
    {
        return branches_ == other.branches_ && reconvs_ == other.reconvs_;
    }

  private:
    friend PcProfile readProfile(const minijson::JsonValue &v);

    PcMap<BranchRecord> branches_;
    PcMap<ReconvRecord> reconvs_;
};

/** A PC as records spell it: "0x" and lowercase hex digits. */
std::string hexPc(Addr pc);

/** @name Serialization (mssr-profile-v1, collapsed stacks)
 * writeJson emits one profile object (branches/reconv_points arrays
 * sorted by PC, no trailing newline); writeFolded emits one collapsed-
 * stack line per (branch, frame) pair -- `branchPC;reconvPC;category
 * slots` -- for flamegraph tooling (inferno / flamegraph.pl).
 *
 * readProfile reads a writeJson object back, partners in PC order. It
 * throws minijson::FormatError on a missing or mistyped key, a PC that
 * is not a nonzero 0x hex string or repeats, a branch funnel at odds
 * with BranchRecord::funnel(), more than NumPartners partners, or
 * branch reuses that differ from the reconvergence points' salvage.
 */
/// @{
void writeJson(std::ostream &os, const PcProfile &profile);
void writeFolded(std::ostream &os, const PcProfile &profile,
                 const std::string &run);
PcProfile readProfile(const minijson::JsonValue &v);
/// @}

} // namespace mssr

#endif // MSSR_COMMON_PROFILE_HH
