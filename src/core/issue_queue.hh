/**
 * @file
 * Reservation station (issue queue) model: capacity-limited pool of
 * dispatched instructions; each cycle the oldest ready instructions
 * are selected subject to per-FU issue-port limits (Table 3: 64-entry
 * 4xALU + 2xBRU integer RVS, 64-entry 2xLSU memory RVS).
 *
 * The entries are one contiguous array in insertion order, allocated
 * once at the configured capacity; selection and squash compact it in
 * place, keeping that order.
 */

#ifndef MSSR_CORE_ISSUE_QUEUE_HH
#define MSSR_CORE_ISSUE_QUEUE_HH

#include <vector>

#include "common/log.hh"
#include "core/dyn_inst.hh"

namespace mssr
{

class IssueQueue
{
  public:
    explicit IssueQueue(unsigned capacity) : capacity_(capacity)
    {
        insts_.reserve(capacity);
    }

    bool full() const { return insts_.size() >= capacity_; }
    std::size_t size() const { return insts_.size(); }

    void
    insert(const DynInstPtr &inst)
    {
        mssr_assert(!full(), "issue queue overflow");
        inst->inIq = true;
        insts_.push_back(inst);
    }

    /**
     * Selects up to @p max_issue ready instructions, oldest first,
     * removing them from the queue.
     * @param ready predicate deciding whether an inst can issue now.
     * @param out replaced with the selected instructions, oldest first
     *        (a caller-owned buffer, so selection does not allocate).
     */
    template <typename ReadyFn>
    void
    selectReady(unsigned max_issue, ReadyFn &&ready,
                std::vector<DynInstPtr> &out)
    {
        out.clear();
        std::size_t kept = 0;
        std::size_t i = 0;
        for (; i < insts_.size() && out.size() < max_issue; ++i) {
            if (ready(insts_[i])) {
                insts_[i]->inIq = false;
                out.push_back(std::move(insts_[i]));
            } else {
                insts_[kept++] = std::move(insts_[i]);
            }
        }
        for (; i < insts_.size(); ++i)
            insts_[kept++] = std::move(insts_[i]);
        insts_.resize(kept);
    }

    /** Removes squashed instructions (seq > @p after_seq). */
    void
    squashAfter(SeqNum after_seq)
    {
        std::erase_if(insts_, [after_seq](const DynInstPtr &inst) {
            if (inst->seq > after_seq) {
                inst->inIq = false;
                return true;
            }
            return false;
        });
    }

  private:
    unsigned capacity_;
    std::vector<DynInstPtr> insts_; //!< insertion order, oldest first
};

} // namespace mssr

#endif // MSSR_CORE_ISSUE_QUEUE_HH
