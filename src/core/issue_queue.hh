/**
 * @file
 * Reservation station (issue queue) model: capacity-limited pool of
 * dispatched instructions; each cycle the oldest ready instructions
 * are selected subject to per-FU issue-port limits (Table 3: 64-entry
 * 4xALU + 2xBRU integer RVS, 64-entry 2xLSU memory RVS).
 *
 * Issue is wakeup-driven, in the manner of gem5 O3's dependency graph:
 * - an entry keeps a slot from insertion until it issues or is
 *   squashed, and an insertion stamp that orders it by age;
 * - an entry counts its source operands that are not ready yet, and
 *   each physical register lists the entries waiting on it, so
 *   wakeup() touches only those entries;
 * - one bit per slot says the entry is ready (and, for the integer
 *   queue's BRU/ALU split, another says it is a control instruction),
 *   so select walks set bits and never reads a queued instruction.
 *
 * Selection is oldest-first by stamp, which is insertion order: a load
 * re-inserted after a forwarding stall goes to the back.
 */

#ifndef MSSR_CORE_ISSUE_QUEUE_HH
#define MSSR_CORE_ISSUE_QUEUE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "core/dyn_inst.hh"

namespace mssr
{

class IssueQueue
{
  public:
    /** Which ready entries select() may take. */
    enum class Pick : std::uint8_t
    {
        Any,
        Control,    //!< control instructions only (BRU ports)
        NonControl, //!< everything else (ALU ports)
    };

    /**
     * @param capacity entries (any size; the bit masks take
     *        ceil(capacity / 64) words).
     * @param num_regs physical registers whose waiters are tracked.
     */
    IssueQueue(unsigned capacity, unsigned num_regs);

    bool full() const { return size_ >= capacity_; }
    std::size_t size() const { return size_; }

    /**
     * Queues @p inst, which must wait for one wakeup() per entry of
     * @p waits: the source registers not ready yet, a register read
     * twice listed twice. With none it is ready at once.
     */
    void insert(const DynInstPtr &inst, std::span<const PhysReg> waits);

    /**
     * Counts @p reg ready for every entry waiting on it; an entry
     * whose count reaches zero becomes ready. Waiters that have since
     * left the queue are skipped (their slot's stamp has changed).
     */
    void wakeup(PhysReg reg);

    /**
     * Removes up to @p max_issue ready entries of kind @p pick, oldest
     * first.
     * @param out replaced with the selected instructions, oldest first
     *        (a caller-owned buffer, so selection does not allocate).
     */
    void select(unsigned max_issue, Pick pick, std::vector<DynInstPtr> &out);

    /** Removes squashed instructions (seq > @p after_seq). */
    void squashAfter(SeqNum after_seq);

    /** Calls @p fn(inst, ready) for every queued instruction. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned s = 0; s < capacity_; ++s)
            if (stamps_[s] != 0)
                fn(insts_[s], testBit(ready_, s));
    }

  private:
    /** One insertion: its slot and stamp. */
    struct Ticket
    {
        std::uint64_t stamp;
        std::uint32_t slot;
    };

    static bool
    testBit(const std::vector<std::uint64_t> &m, unsigned s)
    {
        return (m[s / 64] >> (s % 64)) & 1;
    }

    static void
    setBit(std::vector<std::uint64_t> &m, unsigned s)
    {
        m[s / 64] |= std::uint64_t(1) << (s % 64);
    }

    static void
    clearBit(std::vector<std::uint64_t> &m, unsigned s)
    {
        m[s / 64] &= ~(std::uint64_t(1) << (s % 64));
    }

    /** Empties slot @p s. */
    void release(unsigned s);

    unsigned capacity_;
    unsigned size_ = 0;
    std::uint64_t nextStamp_ = 1; //!< 0 marks a free slot

    // Per slot.
    std::vector<DynInstPtr> insts_;
    std::vector<std::uint64_t> stamps_;  //!< insertion stamp; 0 = free
    std::vector<std::uint8_t> pending_;  //!< source operands not ready

    // One bit per slot.
    std::vector<std::uint64_t> used_;
    std::vector<std::uint64_t> ready_;
    std::vector<std::uint64_t> control_;

    std::vector<std::vector<Ticket>> waiters_; //!< per physical register
    std::vector<Ticket> picked_;               //!< select() scratch
};

} // namespace mssr

#endif // MSSR_CORE_ISSUE_QUEUE_HH
