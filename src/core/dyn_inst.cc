#include "core/dyn_inst.hh"

namespace mssr
{

DynInstPool::~DynInstPool()
{
    // Idle slots are poisoned under AddressSanitizer; hand them back
    // to the allocator unpoisoned.
    for (DynInstSlot *slot : free_)
        unpoison(slot);
}

void
DynInstPool::grow()
{
    slots_.push_back(std::make_unique<DynInstSlot>());
    slots_.back()->pool = this;
    // Room for every slot, so recycling a slot never allocates.
    free_.reserve(slots_.capacity());
    free_.push_back(slots_.back().get());
    poison(slots_.back().get());
}

} // namespace mssr
