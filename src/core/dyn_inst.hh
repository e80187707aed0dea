/**
 * @file
 * Dynamic instruction: one in-flight instance of a static instruction,
 * carrying rename state, RGIDs, prediction metadata, memory state and
 * execution status through the pipeline.
 *
 * Instructions live in a per-core DynInstPool and are held through
 * DynInstPtr, an intrusive reference-counted handle. One core runs on
 * one thread, so the count is a plain integer: copying a handle costs
 * an increment, not an atomic read-modify-write, and the last handle
 * to drop returns the slot to its pool instead of freeing it.
 */

#ifndef MSSR_CORE_DYN_INST_HH
#define MSSR_CORE_DYN_INST_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "common/types.hh"
#include "frontend/pred_block.hh"
#include "isa/inst.hh"

namespace mssr
{

/**
 * The fields of an in-flight instruction that the pool resets for
 * every instruction it hands out; DynInst adds the branch metadata,
 * which it does not. Largest fields first, so nothing is padded.
 */
struct DynInstState
{
    // Identity.
    SeqNum seq = 0;
    Addr pc = 0;
    isa::Inst si;
    std::uint64_t ftqId = 0;
    Addr predNext = 0;          //!< predicted successor PC

    // Memory state and execution results.
    Addr memAddr = 0;
    RegVal result = 0;
    Addr actualNext = 0;
    RegVal reusedValue = 0;     //!< value adopted at reuse time
    int lqIdx = -1;             //!< load-queue ring slot; -1 = not queued
    int sqIdx = -1;             //!< store-queue ring slot; -1 = not queued

    // Rename state.
    Rgid srcRgid[2] = {0, 0};
    Rgid dstRgid = 0;
    Rgid oldDstRgid = 0;                //!< previous RGID of rd
    PhysReg src[2] = {InvalidPhysReg, InvalidPhysReg};
    PhysReg dst = InvalidPhysReg;
    PhysReg oldDst = InvalidPhysReg;    //!< previous mapping of rd

    // Status flags.
    bool hasBranchInfo = false; //!< DynInst::branchInfo is this one's
    bool executed = false;      //!< produced its result value
    bool completed = false;     //!< done; eligible for commit
    bool squashed = false;
    bool actualTaken = false;
    bool mispredicted = false;

    // Squash reuse state.
    bool reused = false;            //!< completed via squash reuse
    bool verifyPending = false;     //!< reused load awaiting re-execute
};

struct DynInst : DynInstState
{
    /**
     * Prediction metadata (control instructions only). Fetch writes it
     * and sets hasBranchInfo; the pool leaves it as the slot's last
     * instruction left it, so it is read only under hasBranchInfo.
     */
    BranchInfo branchInfo;

    bool isLoad() const { return si.isLoad(); }
    bool isStore() const { return si.isStore(); }
    bool isControl() const { return si.isControl(); }
};

class DynInstPool;

/** One pool slot: an instruction plus its handle bookkeeping. */
struct DynInstSlot
{
    DynInst inst;
    std::uint32_t refs = 0;       //!< live DynInstPtr handles
    DynInstPool *pool = nullptr;  //!< owner the slot returns to
    DynInstSlot *nextFree = nullptr; //!< next idle slot, while idle
};

/**
 * Shared handle to a pooled DynInst. Copies share the instruction;
 * when the last one is destroyed or reassigned the slot goes back to
 * its pool. Not thread-safe: every handle to one pool's instructions
 * must stay on the thread that runs that pool's core.
 */
class DynInstPtr
{
  public:
    DynInstPtr() = default;
    DynInstPtr(std::nullptr_t) {}

    DynInstPtr(const DynInstPtr &other) : slot_(other.slot_)
    {
        if (slot_)
            ++slot_->refs;
    }

    DynInstPtr(DynInstPtr &&other) noexcept
        : slot_(std::exchange(other.slot_, nullptr))
    {
    }

    /**
     * Takes the new reference before dropping the old one, so
     * assigning a handle to itself keeps the instruction alive.
     */
    DynInstPtr &
    operator=(const DynInstPtr &other)
    {
        if (other.slot_)
            ++other.slot_->refs;
        drop();
        slot_ = other.slot_;
        return *this;
    }

    DynInstPtr &
    operator=(DynInstPtr &&other) noexcept
    {
        DynInstSlot *const taken = std::exchange(other.slot_, nullptr);
        drop();
        slot_ = taken;
        return *this;
    }

    ~DynInstPtr() { drop(); }

    DynInst *get() const { return slot_ ? &slot_->inst : nullptr; }
    DynInst *operator->() const { return &slot_->inst; }
    explicit operator bool() const { return slot_ != nullptr; }

    friend bool
    operator==(const DynInstPtr &a, const DynInstPtr &b)
    {
        return a.slot_ == b.slot_;
    }

    /** Exchanges the handles; no count changes. */
    friend void
    swap(DynInstPtr &a, DynInstPtr &b) noexcept
    {
        std::swap(a.slot_, b.slot_);
    }

  private:
    friend class DynInstPool;

    /** Adopts @p slot, whose count the caller already raised. */
    explicit DynInstPtr(DynInstSlot *slot) : slot_(slot) {}

    inline void drop();

    DynInstSlot *slot_ = nullptr;
};

/**
 * Per-core store of in-flight instructions. Released slots are reused
 * last-in first-out, so after warm-up fetching an instruction takes no
 * heap allocation and touches a recently used, cache-warm slot. The
 * pool must outlive every handle to its slots: O3Cpu declares it
 * before any member that holds one.
 *
 * Under AddressSanitizer a released slot is poisoned until it is
 * handed out again, so a stale pointer into it is still reported as
 * a use-after-free even though the memory is never freed.
 */
class DynInstPool
{
  public:
    DynInstPool() = default;
    ~DynInstPool();
    DynInstPool(const DynInstPool &) = delete;
    DynInstPool &operator=(const DynInstPool &) = delete;

    /**
     * An instruction with one handle, its DynInstState fields at their
     * defaults (branchInfo is left as it was; see DynInst).
     */
    DynInstPtr
    acquire()
    {
        if (!freeHead_)
            grow();
        DynInstSlot *slot = freeHead_;
        freeHead_ = slot->nextFree;
        unpoison(slot);
        static_cast<DynInstState &>(slot->inst) = DynInstState{};
        slot->refs = 1;
        ++live_;
        return DynInstPtr(slot);
    }

    /** Slots currently held by at least one handle. */
    std::size_t live() const { return live_; }

    /**
     * Slots ever allocated, which is the most that were live at once:
     * the pool grows only when every slot is in use.
     */
    std::size_t highWater() const { return slots_.size(); }

  private:
    friend class DynInstPtr;

    /** Puts @p slot on top of the idle stack. */
    void
    recycle(DynInstSlot *slot)
    {
        poison(slot);
        slot->nextFree = freeHead_;
        freeHead_ = slot;
        --live_;
    }

    /** Adds one idle slot (the only allocating path). */
    void grow();

    /** Poisons the instruction; the bookkeeping stays readable. */
    static void
    poison([[maybe_unused]] DynInstSlot *slot)
    {
#if defined(__SANITIZE_ADDRESS__)
        __asan_poison_memory_region(&slot->inst, sizeof(slot->inst));
#endif
    }

    static void
    unpoison([[maybe_unused]] DynInstSlot *slot)
    {
#if defined(__SANITIZE_ADDRESS__)
        __asan_unpoison_memory_region(&slot->inst, sizeof(slot->inst));
#endif
    }

    std::vector<std::unique_ptr<DynInstSlot>> slots_;
    /** Idle slots, a LIFO stack linked through DynInstSlot::nextFree. */
    DynInstSlot *freeHead_ = nullptr;
    std::size_t live_ = 0;
};

inline void
DynInstPtr::drop()
{
    if (slot_ && --slot_->refs == 0)
        slot_->pool->recycle(slot_);
}

} // namespace mssr

#endif // MSSR_CORE_DYN_INST_HH
