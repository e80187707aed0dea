#include "core/dyn_inst.hh"

namespace mssr
{

DynInstPool::~DynInstPool()
{
    // Idle slots are poisoned under AddressSanitizer; hand them back
    // to the allocator unpoisoned.
    for (DynInstSlot *slot = freeHead_; slot; slot = slot->nextFree)
        unpoison(slot);
}

void
DynInstPool::grow()
{
    slots_.push_back(std::make_unique<DynInstSlot>());
    DynInstSlot *slot = slots_.back().get();
    slot->pool = this;
    ++live_; // recycle() counts it back out
    recycle(slot);
}

} // namespace mssr
