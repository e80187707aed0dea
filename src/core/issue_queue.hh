/**
 * @file
 * Reservation station (issue queue) model: capacity-limited pool of
 * dispatched instructions; each cycle the oldest ready instructions
 * are selected subject to per-FU issue-port limits (Table 3: 64-entry
 * 4xALU + 2xBRU integer RVS, 64-entry 2xLSU memory RVS).
 */

#ifndef MSSR_CORE_ISSUE_QUEUE_HH
#define MSSR_CORE_ISSUE_QUEUE_HH

#include <list>
#include <vector>

#include "common/log.hh"
#include "core/dyn_inst.hh"

namespace mssr
{

class IssueQueue
{
  public:
    explicit IssueQueue(unsigned capacity) : capacity_(capacity) {}

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
        for (auto it = insts_.begin();
             it != insts_.end() && out.size() < max_issue;) {
            if (ready(*it)) {
                (*it)->inIq = false;
                out.push_back(*it);
                it = insts_.erase(it);
            } else {
                ++it;
            }
        }
    }

    /** Removes squashed instructions (seq > @p after_seq). */
    void
    squashAfter(SeqNum after_seq)
    {
        insts_.remove_if([after_seq](const DynInstPtr &inst) {
            if (inst->seq > after_seq) {
                inst->inIq = false;
                return true;
            }
            return false;
        });
    }

  private:
    unsigned capacity_;
    std::list<DynInstPtr> insts_; //!< insertion (program) order
};

} // namespace mssr

#endif // MSSR_CORE_ISSUE_QUEUE_HH
