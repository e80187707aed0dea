/**
 * @file
 * Register Integration baseline [Roth & Sohi, MICRO 2000], as
 * evaluated in paper section 4.1.2: a PC-indexed, set-associative
 * reuse table whose entries are keyed by the *physical* names of an
 * instruction's source registers. At rename, after source renaming, a
 * matching entry lets the instruction adopt ("integrate") the squashed
 * destination physical register and complete immediately.
 *
 * The table exhibits the structural behaviours the paper contrasts
 * against RGIDs: set conflicts/replacements (Figure 3) and transitive
 * invalidation -- evicting an entry frees its destination register,
 * which cascades to entries that reference that register as a source.
 */

#ifndef MSSR_RI_INTEGRATION_TABLE_HH
#define MSSR_RI_INTEGRATION_TABLE_HH

#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "core/dyn_inst.hh"
#include "core/free_list.hh"
#include "isa/inst.hh"

namespace mssr
{

/** Rename-stage outcome of an integration attempt. */
struct IntegrationAdvice
{
    bool reuse = false;
    bool needVerify = false;
    PhysReg destPreg = InvalidPhysReg;
    Addr memAddr = 0;
    std::uint8_t memSize = 0;
};

class IntegrationTable
{
  public:
    IntegrationTable(const RegIntConfig &cfg, FreeList &free_list);

    /**
     * Captures a squashed stream: eligible executed instructions are
     * inserted (reserving their destination registers); ineligible
     * ones release theirs.
     */
    void onBranchSquash(const std::vector<DynInstPtr> &squashed);

    /** Non-branch squash: releases all squashed destinations. */
    void onOtherSquash(const std::vector<DynInstPtr> &squashed,
                       bool invalidate_all);

    /**
     * Attempts integration for a renamed instruction whose sources
     * were renamed to @p src_pregs. On success the entry is removed
     * and its destination register adopted by the caller's mapping.
     */
    IntegrationAdvice tryIntegrate(const DynInstPtr &inst,
                                   const PhysReg src_pregs[2]);

    /**
     * Notifies the table that @p preg was (re)allocated by rename:
     * entries referencing it as a source are transitively invalidated.
     */
    void onPregReallocated(PhysReg preg);

    /** Invalidates the whole table, releasing reservations. */
    void invalidateAll();

    /**
     * Evicts the globally least-recently-inserted entry to relieve
     * free-list pressure. @return true when an entry was evicted.
     */
    bool reclaimOne();

    /** Per-(set,way) replacement counts (Figure 3). */
    const std::vector<std::uint64_t> &replacementCounts() const
    {
        return replacements_;
    }

    unsigned sets() const { return cfg_.sets; }
    unsigned ways() const { return cfg_.ways; }

    void reportStats(StatSet &stats) const;

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        isa::Op op = isa::Op::NOP;
        std::int64_t imm = 0;
        std::uint8_t numSrcs = 0;
        PhysReg src[2] = {InvalidPhysReg, InvalidPhysReg};
        PhysReg dst = InvalidPhysReg;
        bool isLoad = false;
        Addr memAddr = 0;
        std::uint8_t memSize = 0;
        std::uint64_t lruStamp = 0;
    };

    std::size_t setOf(Addr pc) const;

    /** Drops entry (freeing its dst) and cascades invalidations. */
    void evict(std::size_t idx, bool count_replacement);

    /** Invalidate entries sourcing @p preg; cascade via worklist. */
    void cascadeInvalidate(PhysReg preg);

    /** Adjusts per-preg source reference counts for entry @p e. */
    void refSources(const Entry &e, int delta);

    RegIntConfig cfg_;
    FreeList &freeList_;
    std::vector<Entry> entries_;          //!< sets x ways
    std::vector<std::uint16_t> srcRefCount_; //!< per-preg source refs
    std::vector<std::uint64_t> replacements_;
    std::vector<PhysReg> cascade_; //!< cascadeInvalidate's worklist
    std::uint64_t lruClock_ = 0;

    std::uint64_t insertions_ = 0;
    std::uint64_t integrations_ = 0;
    std::uint64_t loadsIntegrated_ = 0;
    std::uint64_t transitiveInvalidations_ = 0;
    std::uint64_t replacementEvents_ = 0;
};

} // namespace mssr

#endif // MSSR_RI_INTEGRATION_TABLE_HH
