/**
 * @file
 * Physical register free list plus per-register lifecycle state.
 *
 * Squash reuse extends the classic Free/InFlight/Arch lifecycle with a
 * Reserved state (paper section 3.3.2): physical registers of squashed,
 * executed instructions are parked in Reserved while they sit in a
 * Squash Log (or Register Integration table) awaiting possible reuse,
 * and either return to InFlight when adopted by a reusing instruction
 * or to Free when their reservation is released.
 */

#ifndef MSSR_CORE_FREE_LIST_HH
#define MSSR_CORE_FREE_LIST_HH

#include <vector>

#include "common/log.hh"
#include "common/ring.hh"
#include "common/types.hh"

namespace mssr
{

enum class PregState : std::uint8_t
{
    Free,       //!< in the free list
    InFlight,   //!< allocated by rename, not yet committed
    Arch,       //!< holds committed architectural state
    Reserved,   //!< squashed result held for potential reuse
};

class FreeList
{
  public:
    /**
     * @param num_regs total physical registers.
     * @param num_arch registers initially in Arch state (the initial
     *        RAT mapping uses pregs [0, num_arch)).
     */
    FreeList(unsigned num_regs, unsigned num_arch);

    bool empty() const { return free_.empty(); }
    std::size_t numFree() const { return free_.size(); }
    unsigned numRegs() const { return static_cast<unsigned>(state_.size()); }

    /** Allocates a register: Free -> InFlight. */
    PhysReg alloc();

    /** Returns a register to the free list from any non-Free state. */
    void release(PhysReg r);

    /** Commit: InFlight -> Arch. */
    void setArch(PhysReg r);

    /** Squash with reuse intent: InFlight -> Reserved. */
    void reserve(PhysReg r);

    /** Squash-reuse adoption: Reserved -> InFlight. */
    void adopt(PhysReg r);

    PregState
    state(PhysReg r) const
    {
        mssr_assert(r < state_.size());
        return state_[r];
    }

    /** Count of registers currently in @p s (O(n); for tests/stats). */
    std::size_t countState(PregState s) const;

  private:
    std::vector<PregState> state_;
    Ring<PhysReg> free_; //!< FIFO: released registers go to the back
};

} // namespace mssr

#endif // MSSR_CORE_FREE_LIST_HH
