#include <gtest/gtest.h>

#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "isa/assembler.hh"

using namespace mssr;

TEST(O3Basic, StraightLineProgram)
{
    const isa::Program prog = isa::assembleProgram(R"(
        li t0, 7
        li t1, 35
        add t2, t0, t1
        halt
    )");
    const RunResult r = runSim(prog, specConfig({.scheme = "none"}));
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.insts, 4u);
    EXPECT_EQ(r.archRegs[7], 42u);
}

TEST(O3Basic, LoopWithPredictableBranch)
{
    const isa::Program prog = isa::assembleProgram(R"(
        li t0, 0
        li t1, 100
        li t2, 0
    loop:
        add t2, t2, t0
        addi t0, t0, 1
        blt t0, t1, loop
        halt
    )");
    const RunResult r = runSim(prog, specConfig({.scheme = "none"}));
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.archRegs[7], 4950u);
    // A tight predictable loop on an 8-wide core should exceed IPC 1.
    EXPECT_GT(r.ipc, 1.0);
}

TEST(O3Basic, StoreLoadForwardingThroughMemory)
{
    const isa::Program prog = isa::assembleProgram(R"(
        li t0, 0x300000
        li t1, 1234
        sd t1, 0(t0)
        ld t2, 0(t0)
        addi t3, t2, 1
        halt
    )");
    Memory mem;
    const RunResult r = runSim(prog, specConfig({.scheme = "none"}), &mem);
    EXPECT_EQ(r.archRegs[7], 1234u);
    EXPECT_EQ(r.archRegs[28], 1235u);
    EXPECT_EQ(mem.read64(0x300000), 1234u);
}

TEST(O3Basic, MispredictionRecovery)
{
    // Data-dependent branch alternates direction: some mispredicts
    // are inevitable early, but the result must be exact.
    const isa::Program prog = isa::assembleProgram(R"(
        li t0, 0
        li t1, 64
        li t2, 0
        li t3, 0
    loop:
        andi t4, t0, 1
        beqz t4, even
        addi t2, t2, 3
        j next
    even:
        addi t3, t3, 5
    next:
        addi t0, t0, 1
        blt t0, t1, loop
        halt
    )");
    const RunResult r = runSim(prog, specConfig({.scheme = "none"}));
    EXPECT_EQ(r.archRegs[7], 32u * 3);  // t2
    EXPECT_EQ(r.archRegs[28], 32u * 5); // t3
}

TEST(O3Basic, CallReturnThroughRas)
{
    const isa::Program prog = isa::assembleProgram(R"(
        li s0, 0
        li s1, 20
    loop:
        mv a0, s0
        call square
        add s2, s2, a0
        addi s0, s0, 1
        blt s0, s1, loop
        halt
    square:
        mul a0, a0, a0
        ret
    )");
    const RunResult r = runSim(prog, specConfig({.scheme = "none"}));
    std::uint64_t expect = 0;
    for (std::uint64_t i = 0; i < 20; ++i)
        expect += i * i;
    EXPECT_EQ(r.archRegs[18], expect);
}

TEST(O3Basic, MemoryOrderViolationIsRepaired)
{
    // The load depends on the store's address register, which is
    // delayed through a divide chain; the load may speculate past the
    // store and must be squashed and re-executed when the store
    // resolves to the same address.
    const isa::Program prog = isa::assembleProgram(R"(
        li t0, 0x400000
        li t1, 99
        sd t1, 0(t0)
        li s0, 0
        li s1, 200
    loop:
        li t2, 36
        li t3, 6
        div t2, t2, t3
        mul t2, t2, t3      # t2 = 36, slowly
        li t4, 0x3fffdc
        add t4, t4, t2      # = 0x400000, late-resolving address
        li t5, 7
        sd t5, 0(t4)        # store to 0x400000, address late
        ld t6, 0(t0)        # load from 0x400000, address early
        add s2, s2, t6
        sd t1, 0(t0)        # restore 99
        addi s0, s0, 1
        blt s0, s1, loop
        halt
    )");
    const RunResult r = runSim(prog, specConfig({.scheme = "none"}));
    EXPECT_EQ(r.archRegs[18], 200u * 7);
    EXPECT_GT(r.stats.get("core.memOrderFlushes"), 0.0);
}

TEST(O3Basic, MaxInstsTerminates)
{
    const isa::Program prog = isa::assembleProgram(R"(
    spin:
        addi t0, t0, 1
        j spin
    )");
    const RunResult r =
        runSim(prog, specConfig({.scheme = "none", .maxInsts = 1000}));
    EXPECT_GE(r.insts, 1000u);
    EXPECT_LT(r.insts, 1100u);
}

TEST(O3Basic, StatsArePopulated)
{
    const isa::Program prog = isa::assembleProgram(R"(
        li t0, 1
        halt
    )");
    const RunResult r = runSim(prog, specConfig({.scheme = "none"}));
    EXPECT_TRUE(r.stats.has("core.cycles"));
    EXPECT_TRUE(r.stats.has("core.ipc"));
    EXPECT_TRUE(r.stats.has("l1d.misses"));
    EXPECT_TRUE(r.stats.has("bpu.blocksFormed"));
}
