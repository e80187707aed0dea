#include "ri/integration_table.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace mssr
{

IntegrationTable::IntegrationTable(const RegIntConfig &cfg,
                                   FreeList &free_list)
    : cfg_(cfg), freeList_(free_list)
{
    mssr_assert(isPow2(cfg.sets));
    mssr_assert(cfg.ways >= 1);
    entries_.resize(static_cast<std::size_t>(cfg.sets) * cfg.ways);
    srcRefCount_.resize(free_list.numRegs(), 0);
    replacements_.resize(entries_.size(), 0);
}

void
IntegrationTable::refSources(const Entry &e, int delta)
{
    for (unsigned i = 0; i < e.numSrcs; ++i) {
        auto &count = srcRefCount_[e.src[i]];
        mssr_assert(delta > 0 || count > 0);
        count = static_cast<std::uint16_t>(static_cast<int>(count) + delta);
    }
}

std::size_t
IntegrationTable::setOf(Addr pc) const
{
    return (pc / InstBytes) & (cfg_.sets - 1);
}

void
IntegrationTable::evict(std::size_t idx, bool count_replacement)
{
    Entry &e = entries_[idx];
    mssr_assert(e.valid);
    e.valid = false;
    refSources(e, -1);
    if (count_replacement) {
        ++replacements_[idx];
        ++replacementEvents_;
    }
    const PhysReg dst = e.dst;
    freeList_.release(dst);
    // Evicting without reuse loses the value in dst once it is
    // reallocated, so dependent entries must also go (transitive
    // invalidation, paper section 3.7.2).
    cascadeInvalidate(dst);
}

void
IntegrationTable::cascadeInvalidate(PhysReg preg)
{
    if (srcRefCount_[preg] == 0)
        return; // nothing references preg: nearly every call from rename
    // First in, first out: cascade_[head] is the next register whose
    // referencing entries go; each one's dst joins the back.
    std::vector<PhysReg> &work = cascade_;
    work.clear();
    work.push_back(preg);
    for (std::size_t head = 0; head < work.size(); ++head) {
        const PhysReg p = work[head];
        if (srcRefCount_[p] == 0)
            continue; // nothing references p: skip the table walk
        for (auto &e : entries_) {
            if (!e.valid)
                continue;
            bool hits = false;
            for (unsigned i = 0; i < e.numSrcs; ++i)
                hits |= e.src[i] == p;
            if (hits) {
                e.valid = false;
                refSources(e, -1);
                ++transitiveInvalidations_;
                freeList_.release(e.dst);
                work.push_back(e.dst);
            }
        }
    }
}

void
IntegrationTable::onBranchSquash(const std::vector<DynInstPtr> &squashed)
{
    for (const auto &inst : squashed) {
        if (!inst->si.hasRd())
            continue;
        const bool eligible = inst->executed && !inst->isStore() &&
                              !inst->isControl() &&
                              (!inst->isLoad() || cfg_.reuseLoads);
        if (!eligible) {
            freeList_.release(inst->dst);
            continue;
        }

        // Insert: prefer an invalid way, else replace LRU.
        const std::size_t base = setOf(inst->pc) * cfg_.ways;
        std::size_t victim = base;
        bool haveInvalid = false;
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            const Entry &e = entries_[base + w];
            if (!e.valid) {
                victim = base + w;
                haveInvalid = true;
                break;
            }
            if (e.lruStamp < entries_[victim].lruStamp)
                victim = base + w;
        }
        if (!haveInvalid)
            evict(victim, true);

        Entry &e = entries_[victim];
        e.valid = true;
        e.pc = inst->pc;
        e.op = inst->si.op;
        e.imm = inst->si.imm;
        e.numSrcs = 0;
        if (inst->si.hasRs1())
            e.src[e.numSrcs++] = inst->src[0];
        if (inst->si.hasRs2())
            e.src[e.numSrcs++] = inst->src[1];
        e.dst = inst->dst;
        e.isLoad = inst->isLoad();
        e.memAddr = inst->memAddr;
        e.memSize = static_cast<std::uint8_t>(inst->si.memBytes());
        e.lruStamp = ++lruClock_;
        refSources(e, +1);
        freeList_.reserve(inst->dst);
        ++insertions_;
    }
}

void
IntegrationTable::onOtherSquash(const std::vector<DynInstPtr> &squashed,
                                bool invalidate_all)
{
    for (const auto &inst : squashed)
        if (inst->si.hasRd())
            freeList_.release(inst->dst);
    if (invalidate_all)
        invalidateAll();
}

IntegrationAdvice
IntegrationTable::tryIntegrate(const DynInstPtr &inst,
                               const PhysReg src_pregs[2])
{
    IntegrationAdvice advice;
    if (!inst->si.hasRd() || inst->isStore() || inst->isControl())
        return advice;

    const std::size_t base = setOf(inst->pc) * cfg_.ways;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        Entry &e = entries_[base + w];
        if (!e.valid || e.pc != inst->pc || e.op != inst->si.op ||
            e.imm != inst->si.imm) {
            continue;
        }
        unsigned nsrc = 0;
        if (inst->si.hasRs1())
            ++nsrc;
        if (inst->si.hasRs2())
            ++nsrc;
        if (nsrc != e.numSrcs)
            continue;
        bool match = true;
        for (unsigned i = 0; i < nsrc; ++i)
            match &= src_pregs[i] == e.src[i];
        if (!match)
            continue;

        // Integrate: the entry's mapping moves to the new instruction.
        freeList_.adopt(e.dst);
        e.valid = false;
        refSources(e, -1);
        ++integrations_;
        if (e.isLoad)
            ++loadsIntegrated_;
        advice.reuse = true;
        advice.needVerify = e.isLoad; // NoSQ-style load verification
        advice.destPreg = e.dst;
        advice.memAddr = e.memAddr;
        advice.memSize = e.memSize;
        return advice;
    }
    return advice;
}

void
IntegrationTable::onPregReallocated(PhysReg preg)
{
    cascadeInvalidate(preg);
}

void
IntegrationTable::invalidateAll()
{
    for (auto &e : entries_) {
        if (e.valid) {
            e.valid = false;
            refSources(e, -1);
            freeList_.release(e.dst);
        }
    }
}

bool
IntegrationTable::reclaimOne()
{
    std::size_t victim = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].valid)
            continue;
        if (victim == entries_.size() ||
            entries_[i].lruStamp < entries_[victim].lruStamp) {
            victim = i;
        }
    }
    if (victim == entries_.size())
        return false;
    evict(victim, false);
    return true;
}

void
IntegrationTable::reportStats(StatSet &stats) const
{
    stats.set("ri.insertions", static_cast<double>(insertions_));
    stats.set("ri.integrations", static_cast<double>(integrations_));
    stats.set("ri.loadsIntegrated", static_cast<double>(loadsIntegrated_));
    stats.set("ri.replacements", static_cast<double>(replacementEvents_));
    stats.set("ri.transitiveInvalidations",
              static_cast<double>(transitiveInvalidations_));
}

} // namespace mssr
