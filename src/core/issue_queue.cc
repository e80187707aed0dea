#include "core/issue_queue.hh"

#include <bit>

#include "common/log.hh"

namespace mssr
{

IssueQueue::IssueQueue(unsigned capacity, unsigned num_regs)
    : capacity_(capacity),
      insts_(capacity),
      stamps_(capacity, 0),
      pending_(capacity, 0),
      used_((capacity + 63) / 64, 0),
      ready_(used_.size(), 0),
      control_(used_.size(), 0),
      waiters_(num_regs)
{
}

void
IssueQueue::insert(const DynInstPtr &inst, std::span<const PhysReg> waits)
{
    mssr_assert(!full(), "issue queue overflow");
    // The lowest free slot: below capacity, since one of the first
    // capacity slots is free.
    std::size_t w = 0;
    while (used_[w] == ~std::uint64_t(0))
        ++w;
    const auto s =
        static_cast<unsigned>(w * 64 + std::countr_zero(~used_[w]));
    setBit(used_, s);
    insts_[s] = inst;
    stamps_[s] = nextStamp_++;
    pending_[s] = static_cast<std::uint8_t>(waits.size());
    if (inst->isControl())
        setBit(control_, s);
    if (waits.empty())
        setBit(ready_, s);
    for (PhysReg reg : waits)
        waiters_[reg].push_back(Ticket{stamps_[s], s});
    ++size_;
}

void
IssueQueue::wakeup(PhysReg reg)
{
    std::vector<Ticket> &waiting = waiters_[reg];
    for (const Ticket &t : waiting)
        if (stamps_[t.slot] == t.stamp && --pending_[t.slot] == 0)
            setBit(ready_, t.slot);
    waiting.clear();
}

void
IssueQueue::select(unsigned max_issue, Pick pick,
                   std::vector<DynInstPtr> &out)
{
    out.clear();
    if (max_issue == 0)
        return;
    if (picked_.size() < max_issue)
        picked_.resize(max_issue);
    // Keep the max_issue smallest stamps among the ready entries in
    // ascending order, by insertion (max_issue is a port count).
    unsigned n = 0;
    for (std::size_t w = 0; w < ready_.size(); ++w) {
        std::uint64_t bits = ready_[w];
        if (pick == Pick::Control)
            bits &= control_[w];
        else if (pick == Pick::NonControl)
            bits &= ~control_[w];
        for (; bits != 0; bits &= bits - 1) {
            const auto s =
                static_cast<unsigned>(w * 64 + std::countr_zero(bits));
            const std::uint64_t stamp = stamps_[s];
            unsigned i;
            if (n < max_issue)
                i = n++;
            else if (stamp < picked_[n - 1].stamp)
                i = n - 1;
            else
                continue;
            for (; i > 0 && picked_[i - 1].stamp > stamp; --i)
                picked_[i] = picked_[i - 1];
            picked_[i] = Ticket{stamp, s};
        }
    }
    for (unsigned i = 0; i < n; ++i) {
        out.push_back(std::move(insts_[picked_[i].slot]));
        release(picked_[i].slot);
    }
}

void
IssueQueue::squashAfter(SeqNum after_seq)
{
    for (std::size_t w = 0; w < used_.size(); ++w) {
        for (std::uint64_t bits = used_[w]; bits != 0; bits &= bits - 1) {
            const auto s =
                static_cast<unsigned>(w * 64 + std::countr_zero(bits));
            if (insts_[s]->seq > after_seq)
                release(s);
        }
    }
}

void
IssueQueue::release(unsigned s)
{
    insts_[s] = nullptr;
    stamps_[s] = 0;
    pending_[s] = 0;
    clearBit(used_, s);
    clearBit(ready_, s);
    clearBit(control_, s);
    --size_;
}

} // namespace mssr
