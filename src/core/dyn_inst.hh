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

struct DynInst
{
    // Identity.
    SeqNum seq = 0;
    Addr pc = 0;
    isa::Inst si;
    std::uint64_t ftqId = 0;

    // Branch prediction metadata (control instructions only).
    bool hasBranchInfo = false;
    BranchInfo branchInfo;
    Addr predNext = 0;          //!< predicted successor PC

    // Rename state.
    PhysReg src[2] = {InvalidPhysReg, InvalidPhysReg};
    PhysReg dst = InvalidPhysReg;
    PhysReg oldDst = InvalidPhysReg;    //!< previous mapping of rd
    Rgid srcRgid[2] = {0, 0};
    Rgid dstRgid = 0;
    Rgid oldDstRgid = 0;                //!< previous RGID of rd

    // Status flags.
    bool executed = false;      //!< produced its result value
    bool completed = false;     //!< done; eligible for commit
    bool squashed = false;

    // Memory state.
    Addr memAddr = 0;
    int lqIdx = -1;             //!< load-queue ring slot; -1 = not queued
    int sqIdx = -1;             //!< store-queue ring slot; -1 = not queued

    // Execution results.
    RegVal result = 0;
    bool actualTaken = false;
    Addr actualNext = 0;
    bool mispredicted = false;

    // Squash reuse state.
    bool reused = false;            //!< completed via squash reuse
    bool verifyPending = false;     //!< reused load awaiting re-execute
    RegVal reusedValue = 0;         //!< value adopted at reuse time

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

    /** A default-initialised instruction with one handle. */
    DynInstPtr
    acquire()
    {
        if (free_.empty())
            grow();
        DynInstSlot *slot = free_.back();
        free_.pop_back();
        unpoison(slot);
        slot->inst = DynInst{};
        slot->refs = 1;
        return DynInstPtr(slot);
    }

    /** Slots currently held by at least one handle. */
    std::size_t live() const { return slots_.size() - free_.size(); }

    /**
     * Slots ever allocated, which is the most that were live at once:
     * the pool grows only when every slot is in use.
     */
    std::size_t highWater() const { return slots_.size(); }

  private:
    friend class DynInstPtr;

    void
    recycle(DynInstSlot *slot)
    {
        poison(slot);
        free_.push_back(slot);
    }

    /** Adds one slot to the free list (the only allocating path). */
    void grow();

    static void
    poison([[maybe_unused]] DynInstSlot *slot)
    {
#if defined(__SANITIZE_ADDRESS__)
        __asan_poison_memory_region(slot, sizeof(*slot));
#endif
    }

    static void
    unpoison([[maybe_unused]] DynInstSlot *slot)
    {
#if defined(__SANITIZE_ADDRESS__)
        __asan_unpoison_memory_region(slot, sizeof(*slot));
#endif
    }

    std::vector<std::unique_ptr<DynInstSlot>> slots_;
    std::vector<DynInstSlot *> free_;   //!< LIFO stack of idle slots
};

inline void
DynInstPtr::drop()
{
    if (slot_ && --slot_->refs == 0)
        slot_->pool->recycle(slot_);
}

} // namespace mssr

#endif // MSSR_CORE_DYN_INST_HH
