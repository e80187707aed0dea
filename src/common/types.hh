/**
 * @file
 * Fundamental scalar types shared across the simulator.
 */

#ifndef MSSR_COMMON_TYPES_HH
#define MSSR_COMMON_TYPES_HH

#include <cstdint>

namespace mssr
{

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Simulated clock cycle count. */
using Cycle = std::uint64_t;

/** Monotonically increasing dynamic-instruction sequence number. */
using SeqNum = std::uint64_t;

/** 64-bit architectural/physical register value. */
using RegVal = std::uint64_t;

/** Architectural register index (0..NumArchRegs-1). */
using ArchReg = std::uint8_t;

/** Physical register index. */
using PhysReg = std::uint16_t;

/**
 * Rename Mapping Generation ID (paper section 3.1). Hardware stores
 * these in 6 bits; the simulator keeps them wide and monotonic and
 * charges the 6-bit capacity at reuse-test time (see reuse/rgid.hh).
 */
using Rgid = std::uint32_t;

/** Number of integer architectural registers in the mini ISA. */
constexpr unsigned NumArchRegs = 32;

/** Sentinel for "no physical register". */
constexpr PhysReg InvalidPhysReg = 0xffff;

/** Sentinel sequence number meaning "none". */
constexpr SeqNum InvalidSeqNum = ~SeqNum(0);

/** Bytes per (fixed-width) instruction in the mini ISA. */
constexpr unsigned InstBytes = 4;

/**
 * Why an instruction (and everything younger) was squashed. Lives with
 * the fundamental types so the probe (common/) and the core (core/)
 * can share it without a layering cycle.
 */
enum class SquashReason
{
    None,
    BranchMispredict,
    MemOrderViolation,
    ReuseVerifyFail,
};

} // namespace mssr

#endif // MSSR_COMMON_TYPES_HH
