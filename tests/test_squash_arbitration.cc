/**
 * requestSquash arbitration: regression tests for the same-afterSeq
 * tie-break. The seed dropped any second squash request whose
 * afterSeq was >= the pending one, so two same-cycle requests with
 * the same squash point but different redirects kept whichever
 * arrived first -- an event-ordering artifact, not an architectural
 * decision. The arbiter must be deterministic: strictly older
 * afterSeq wins; at equal afterSeq the older cause wins; at equal
 * cause, reason priority (BranchMispredict > ReuseVerifyFail >
 * MemOrderViolation) picks the redirect.
 */

#include <gtest/gtest.h>

#include "core/o3cpu.hh"
#include "isa/assembler.hh"
#include "o3cpu_test_peer.hh"
#include "sim/memory.hh"

using namespace mssr;

namespace
{

class SquashArbitration : public ::testing::Test
{
  protected:
    SquashArbitration()
        : prog_(isa::assembleProgram("halt\n")),
          cpu_(baselineCfg(), prog_, mem_)
    {
    }

    static SimConfig
    baselineCfg()
    {
        SimConfig cfg;
        cfg.reuseKind = ReuseKind::None;
        return cfg;
    }

    DynInstPtr
    inst(SeqNum seq, Addr pc)
    {
        auto d = pool_.acquire();
        d->seq = seq;
        d->pc = pc;
        return d;
    }

    void
    request(SeqNum after, Addr redirect, SeqNum cause_seq, Addr cause_pc,
            SquashReason reason)
    {
        O3CpuTestPeer::requestSquash(cpu_, after, redirect,
                                     inst(cause_seq, cause_pc), reason);
    }

    DynInstPool pool_; // first: cpu_ holds handles from it
    Memory mem_;
    isa::Program prog_;
    O3Cpu cpu_;
};

} // namespace

TEST_F(SquashArbitration, StrictlyOlderAfterSeqWins)
{
    request(60, 0x1000, 61, 0x900, SquashReason::BranchMispredict);
    request(50, 0x2000, 51, 0x800, SquashReason::MemOrderViolation);
    auto p = O3CpuTestPeer::pending(cpu_);
    EXPECT_EQ(p.afterSeq, 50u);
    EXPECT_EQ(p.redirectPC, 0x2000u);

    // And a younger request never displaces an older pending one.
    request(55, 0x3000, 56, 0x700, SquashReason::BranchMispredict);
    p = O3CpuTestPeer::pending(cpu_);
    EXPECT_EQ(p.afterSeq, 50u);
    EXPECT_EQ(p.redirectPC, 0x2000u);
}

TEST_F(SquashArbitration, SameAfterSeqOlderCauseWins)
{
    // Seed bug: same afterSeq with a *different* redirect was dropped
    // regardless of which cause was older, so the final redirect
    // depended on pipeline event order. The older cause's redirect
    // must win -- re-fetching from it re-resolves the younger cause.
    request(50, 0x2000, 51, 0x900, SquashReason::MemOrderViolation);
    request(50, 0x3000, 50, 0x800, SquashReason::BranchMispredict);
    auto p = O3CpuTestPeer::pending(cpu_);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.afterSeq, 50u);
    EXPECT_EQ(p.causeSeq, 50u);
    EXPECT_EQ(p.redirectPC, 0x3000u);
    EXPECT_EQ(p.reason, SquashReason::BranchMispredict);

    // Arrival order must not matter: older cause first also sticks.
    O3CpuTestPeer::clearPending(cpu_);
    request(50, 0x3000, 50, 0x800, SquashReason::BranchMispredict);
    request(50, 0x2000, 51, 0x900, SquashReason::MemOrderViolation);
    p = O3CpuTestPeer::pending(cpu_);
    EXPECT_EQ(p.causeSeq, 50u);
    EXPECT_EQ(p.redirectPC, 0x3000u);
    EXPECT_EQ(p.reason, SquashReason::BranchMispredict);
}

TEST_F(SquashArbitration, SameCauseReasonPriorityBreaksTie)
{
    // A reused load that both fails verification and is discovered to
    // be a mispredicted-path fixpoint at the same seq: the branch
    // mispredict's redirect must win deterministically.
    request(50, 0x2000, 50, 0x800, SquashReason::ReuseVerifyFail);
    request(50, 0x3000, 50, 0x800, SquashReason::BranchMispredict);
    auto p = O3CpuTestPeer::pending(cpu_);
    EXPECT_EQ(p.redirectPC, 0x3000u);
    EXPECT_EQ(p.reason, SquashReason::BranchMispredict);

    // Lower-priority same-cause arrivals never displace it.
    request(50, 0x4000, 50, 0x800, SquashReason::MemOrderViolation);
    request(50, 0x5000, 50, 0x800, SquashReason::ReuseVerifyFail);
    p = O3CpuTestPeer::pending(cpu_);
    EXPECT_EQ(p.redirectPC, 0x3000u);
    EXPECT_EQ(p.reason, SquashReason::BranchMispredict);

    // Equal priority keeps the first arrival (stable, still one
    // deterministic winner).
    O3CpuTestPeer::clearPending(cpu_);
    request(50, 0x6000, 50, 0x800, SquashReason::MemOrderViolation);
    request(50, 0x7000, 50, 0x800, SquashReason::MemOrderViolation);
    p = O3CpuTestPeer::pending(cpu_);
    EXPECT_EQ(p.redirectPC, 0x6000u);
}
