/**
 * @file
 * Re-Order Buffer: program-ordered window of in-flight instructions.
 * Table 2 notes the ROB additionally stores all source/destination
 * RGIDs so the Squash Log can be populated on a misprediction; our
 * DynInst carries those fields, so the ROB models that storage
 * implicitly (accounted for in the storage model).
 */

#ifndef MSSR_CORE_ROB_HH
#define MSSR_CORE_ROB_HH

#include "common/log.hh"
#include "common/ring.hh"
#include "core/dyn_inst.hh"

namespace mssr
{

class Rob
{
  public:
    explicit Rob(unsigned capacity) : insts_(capacity) {}

    bool full() const { return insts_.full(); }
    bool empty() const { return insts_.empty(); }
    std::size_t size() const { return insts_.size(); }

    void
    push(const DynInstPtr &inst)
    {
        mssr_assert(!full(), "ROB overflow");
        mssr_assert(insts_.empty() || inst->seq > insts_.back()->seq);
        insts_.pushBack(inst);
    }

    const DynInstPtr &head() const { return insts_.front(); }

    void popHead() { insts_.popFront(); }

    /**
     * Removes all instructions with seq > @p after_seq, youngest first,
     * invoking @p undo on each (rename rollback, resource release).
     * @p undo gets the ROB's handle and may move it out.
     */
    template <typename UndoFn>
    void
    squashAfter(SeqNum after_seq, UndoFn &&undo)
    {
        while (!insts_.empty() && insts_.back()->seq > after_seq) {
            undo(insts_.back());
            insts_.popBack();
        }
    }

    /** Iteration support (oldest first). */
    auto begin() const { return insts_.begin(); }
    auto end() const { return insts_.end(); }

  private:
    Ring<DynInstPtr> insts_;
};

} // namespace mssr

#endif // MSSR_CORE_ROB_HH
