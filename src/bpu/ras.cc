#include "bpu/ras.hh"

namespace mssr
{

Ras::Ras(unsigned entries) : stack_(entries, 0) {}

void
Ras::push(Addr return_addr)
{
    top_ = (top_ + 1) % stack_.size();
    stack_[top_] = return_addr;
}

Addr
Ras::pop()
{
    const Addr out = stack_[top_];
    top_ = (top_ + stack_.size() - 1) % stack_.size();
    return out;
}

Ras::Snapshot
Ras::snapshot() const
{
    return {top_, stack_[top_]};
}

void
Ras::restore(const Snapshot &snap)
{
    top_ = snap.top;
    stack_[top_] = snap.tos;
}

} // namespace mssr
