/**
 * @file
 * Physical register file: values plus ready (scoreboard) bits. Table 3
 * configures 256 physical registers.
 */

#ifndef MSSR_CORE_REGFILE_HH
#define MSSR_CORE_REGFILE_HH

#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace mssr
{

class PhysRegFile
{
  public:
    explicit PhysRegFile(unsigned num_regs)
        : values_(num_regs, 0), ready_(num_regs, 0)
    {
    }

    unsigned numRegs() const { return static_cast<unsigned>(values_.size()); }

    RegVal
    value(PhysReg r) const
    {
        mssr_assert(r < values_.size());
        return values_[r];
    }

    bool
    ready(PhysReg r) const
    {
        mssr_assert(r < ready_.size());
        return ready_[r] != 0;
    }

    /** Writes a value and marks the register ready (writeback). */
    void
    write(PhysReg r, RegVal v)
    {
        mssr_assert(r < values_.size());
        values_[r] = v;
        ready_[r] = 1;
    }

    /** Marks a newly allocated register not-ready. */
    void
    markNotReady(PhysReg r)
    {
        mssr_assert(r < ready_.size());
        ready_[r] = 0;
    }

  private:
    std::vector<RegVal> values_;
    std::vector<std::uint8_t> ready_; //!< bytes: vector<bool> is slow
};

} // namespace mssr

#endif // MSSR_CORE_REGFILE_HH
