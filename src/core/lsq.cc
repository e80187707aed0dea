#include "core/lsq.hh"

#include "common/log.hh"

namespace mssr
{

Lsq::Lsq(unsigned lq_entries, unsigned sq_entries)
    : loads_(lq_entries), stores_(sq_entries)
{
}

void
Lsq::insertLoad(const DynInstPtr &inst)
{
    mssr_assert(!loadQueueFull(), "load queue overflow");
    inst->lqIdx = static_cast<int>(loads_.pushBack(LoadEntry{inst}));
}

void
Lsq::insertStore(const DynInstPtr &inst)
{
    mssr_assert(!storeQueueFull(), "store queue overflow");
    inst->sqIdx = static_cast<int>(stores_.pushBack(StoreEntry{inst}));
}

void
Lsq::storeResolved(const DynInstPtr &inst, Addr addr, unsigned size,
                   RegVal data)
{
    mssr_assert(inst->sqIdx >= 0 && stores_.slot(inst->sqIdx).inst == inst,
                "storeResolved: store seq ", inst->seq, " not in SQ");
    StoreEntry &entry = stores_.slot(inst->sqIdx);
    entry.addrValid = true;
    entry.addr = addr;
    entry.size = size;
    entry.data = data;
}

DynInstPtr
Lsq::checkViolation(SeqNum store_seq, Addr addr, unsigned size)
{
    DynInstPtr oldest;
    for (const auto &entry : loads_) {
        if (entry.inst->seq <= store_seq || !entry.executed)
            continue;
        if (overlap(entry.addr, entry.size, addr, size)) {
            if (!oldest || entry.inst->seq < oldest->seq)
                oldest = entry.inst;
        }
    }
    return oldest;
}

ForwardResult
Lsq::searchForward(SeqNum load_seq, Addr addr, unsigned size)
{
    // Youngest older store with overlapping address wins.
    const StoreEntry *best = nullptr;
    for (const auto &entry : stores_) {
        if (entry.inst->seq >= load_seq)
            break;
        if (entry.addrValid && overlap(entry.addr, entry.size, addr, size))
            best = &entry;
    }
    ForwardResult out;
    if (!best)
        return out;
    if (best->addr <= addr && best->addr + best->size >= addr + size) {
        // Full coverage: extract the loaded bytes from the store data.
        out.kind = ForwardResult::Kind::Forward;
        const unsigned shift =
            static_cast<unsigned>(addr - best->addr) * 8;
        RegVal data = best->data >> shift;
        if (size < 8)
            data &= (RegVal(1) << (8 * size)) - 1;
        out.data = data;
    } else {
        // Partial overlap: wait for the store to commit to memory.
        out.kind = ForwardResult::Kind::Stall;
    }
    return out;
}

void
Lsq::loadExecuted(const DynInstPtr &inst, Addr addr, unsigned size)
{
    mssr_assert(inst->lqIdx >= 0 && loads_.slot(inst->lqIdx).inst == inst,
                "loadExecuted: load seq ", inst->seq, " not in LQ");
    LoadEntry &entry = loads_.slot(inst->lqIdx);
    entry.executed = true;
    entry.addr = addr;
    entry.size = size;
}

void
Lsq::squashAfter(SeqNum after_seq)
{
    while (!loads_.empty() && loads_.back().inst->seq > after_seq) {
        loads_.back().inst->lqIdx = -1;
        loads_.popBack();
    }
    while (!stores_.empty() && stores_.back().inst->seq > after_seq) {
        stores_.back().inst->sqIdx = -1;
        stores_.popBack();
    }
}

void
Lsq::commitStore(const DynInstPtr &inst)
{
    mssr_assert(!stores_.empty() && stores_.front().inst == inst,
                "commitStore out of order");
    inst->sqIdx = -1;
    stores_.popFront();
}

void
Lsq::commitLoad(const DynInstPtr &inst)
{
    mssr_assert(!loads_.empty() && loads_.front().inst == inst,
                "commitLoad out of order");
    inst->lqIdx = -1;
    loads_.popFront();
}

} // namespace mssr
