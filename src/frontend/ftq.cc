#include "frontend/ftq.hh"

#include "common/log.hh"

namespace mssr
{

Ftq::Ftq(unsigned capacity) : entries_(capacity) {}

PredBlock &
Ftq::allocate()
{
    mssr_assert(!full(), "FTQ overflow");
    Entry &entry = entries_.extendBack();
    entry.fetched = 0;
    return entry.block;
}

const PredBlock *
Ftq::fetchHead() const
{
    if (fetchIdx_ >= entries_.size())
        return nullptr;
    return &entries_[fetchIdx_].block;
}

void
Ftq::advanceFetch(unsigned n)
{
    mssr_assert(fetchIdx_ < entries_.size());
    Entry &entry = entries_[fetchIdx_];
    fetchOffset_ += n;
    entry.fetched = fetchOffset_;
    mssr_assert(fetchOffset_ <= entry.block.numInsts());
    if (fetchOffset_ == entry.block.numInsts()) {
        ++fetchIdx_;
        fetchOffset_ = 0;
    }
}

void
Ftq::squashAfter(std::uint64_t block_id, Addr keep_pc)
{
    // Locate the redirecting block.
    std::size_t idx = 0;
    bool found = false;
    for (; idx < entries_.size(); ++idx) {
        if (entries_[idx].block.id == block_id) {
            found = true;
            break;
        }
    }
    if (!found) {
        // The redirecting block already retired (possible for flushes
        // triggered by loads whose block head was deallocated): squash
        // everything still queued.
        entries_.clear();
        fetchIdx_ = 0;
        fetchOffset_ = 0;
        return;
    }

    Entry &pivot = entries_[idx];
    mssr_assert(pivot.block.contains(keep_pc));
    const unsigned keep =
        static_cast<unsigned>((keep_pc - pivot.block.startPC) / InstBytes)
        + 1;

    // Truncate: the pivot block now ends at the redirecting inst.
    pivot.block.endPC = keep_pc;
    pivot.fetched = std::min(pivot.fetched, keep);
    BranchList &branches = pivot.block.branches;
    while (!branches.empty() && branches.back().pc > keep_pc)
        branches.popBack(); // in PC order: the dropped ones are last
    while (entries_.size() > idx + 1)
        entries_.popBack();

    // Fetch cursor: the pivot is fully consumed (the redirecting
    // instruction was necessarily fetched to execute).
    fetchIdx_ = entries_.size();
    fetchOffset_ = 0;
}

void
Ftq::retireUpTo(std::uint64_t block_id)
{
    while (!entries_.empty() && entries_.front().block.id < block_id) {
        mssr_assert(fetchIdx_ > 0, "retiring unfetched FTQ block");
        entries_.popFront();
        --fetchIdx_;
    }
}

} // namespace mssr
