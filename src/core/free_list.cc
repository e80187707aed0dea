#include "core/free_list.hh"

namespace mssr
{

FreeList::FreeList(unsigned num_regs, unsigned num_arch)
    : state_(num_regs, PregState::Free), free_(num_regs)
{
    mssr_assert(num_arch <= num_regs);
    for (unsigned r = 0; r < num_arch; ++r)
        state_[r] = PregState::Arch;
    for (unsigned r = num_arch; r < num_regs; ++r)
        free_.pushBack(static_cast<PhysReg>(r));
}

PhysReg
FreeList::alloc()
{
    mssr_assert(!free_.empty(), "free list underflow");
    const PhysReg r = free_.front();
    free_.popFront();
    mssr_assert(state_[r] == PregState::Free);
    state_[r] = PregState::InFlight;
    return r;
}

void
FreeList::release(PhysReg r)
{
    mssr_assert(r < state_.size());
    mssr_assert(state_[r] != PregState::Free, "double free of preg ", r);
    state_[r] = PregState::Free;
    free_.pushBack(r);
}

void
FreeList::setArch(PhysReg r)
{
    mssr_assert(r < state_.size());
    mssr_assert(state_[r] == PregState::InFlight);
    state_[r] = PregState::Arch;
}

void
FreeList::reserve(PhysReg r)
{
    mssr_assert(r < state_.size());
    mssr_assert(state_[r] == PregState::InFlight);
    state_[r] = PregState::Reserved;
}

void
FreeList::adopt(PhysReg r)
{
    mssr_assert(r < state_.size());
    mssr_assert(state_[r] == PregState::Reserved);
    state_[r] = PregState::InFlight;
}

std::size_t
FreeList::countState(PregState s) const
{
    std::size_t n = 0;
    for (auto st : state_)
        if (st == s)
            ++n;
    return n;
}

} // namespace mssr
