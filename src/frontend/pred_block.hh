/**
 * @file
 * Prediction block: the unit of work produced by the branch-prediction
 * pipeline and stored in the FTQ (paper section 3.3.1). A block covers
 * a contiguous PC range [startPC, endPC] (inclusive, <= 32 bytes) and
 * ends either at a predicted-taken control instruction or at the fetch
 * limit.
 */

#ifndef MSSR_FRONTEND_PRED_BLOCK_HH
#define MSSR_FRONTEND_PRED_BLOCK_HH

#include <array>

#include "bpu/predictor.hh"
#include "bpu/ras.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace mssr
{

/** Per-branch prediction metadata recorded during block formation. */
struct BranchInfo
{
    Addr pc = 0;
    bool isCond = false;
    bool predTaken = false;
    Addr predTarget = 0;        //!< target if predicted taken
    PredSnapshot predSnap;      //!< predictor state before this branch
    Ras::Snapshot rasSnap;      //!< RAS state before this branch
};

/**
 * Most instructions one block holds: a 32-byte fetch block of 4-byte
 * instructions. BpuPipeline rejects a CoreConfig::fetchBlockBytes that
 * would form longer blocks.
 */
inline constexpr unsigned MaxBlockInsts = 8;

/**
 * A block's branches in PC order, held inline (a block holds at most
 * MaxBlockInsts of them), so forming or copying a block allocates
 * nothing.
 */
class BranchList
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const BranchInfo &operator[](std::size_t i) const { return items_[i]; }
    const BranchInfo &back() const { return items_[size_ - 1]; }
    const BranchInfo *begin() const { return items_.data(); }
    const BranchInfo *end() const { return items_.data() + size_; }

    void
    pushBack(const BranchInfo &info)
    {
        mssr_assert(size_ < MaxBlockInsts, "branch list overflow");
        items_[size_++] = info;
    }

    void popBack() { --size_; }
    void clear() { size_ = 0; }

  private:
    std::array<BranchInfo, MaxBlockInsts> items_;
    unsigned size_ = 0;
};

/** A prediction block (one FTQ entry / one WPB entry when squashed). */
struct PredBlock
{
    std::uint64_t id = 0;       //!< FTQ allocation id, monotonic
    Addr startPC = 0;
    Addr endPC = 0;             //!< inclusive PC of the last instruction
    Addr nextPC = 0;            //!< predicted successor block start
    BranchList branches;

    unsigned
    numInsts() const
    {
        return static_cast<unsigned>((endPC - startPC) / InstBytes + 1);
    }

    bool
    contains(Addr pc) const
    {
        return pc >= startPC && pc <= endPC &&
               (pc - startPC) % InstBytes == 0;
    }
};

} // namespace mssr

#endif // MSSR_FRONTEND_PRED_BLOCK_HH
