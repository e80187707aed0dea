/**
 * DynInstPool and its DynInstPtr handle: slot reuse, the reference
 * count across copies, moves and self-assignment, and a full detailed
 * run that must hand every slot back with a bounded high-water mark.
 */

#include <gtest/gtest.h>

#include <utility>

#include "core/dyn_inst.hh"
#include "core/o3cpu.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "o3cpu_test_peer.hh"
#include "sim/memory.hh"
#include "workloads/registry.hh"

using namespace mssr;

TEST(DynInstPool, LastHandleReturnsTheSlot)
{
    DynInstPool pool;
    DynInstPtr a = pool.acquire();
    a->seq = 7;
    DynInstPtr b = a;
    EXPECT_EQ(pool.live(), 1u);
    a = nullptr;
    EXPECT_EQ(pool.live(), 1u);
    EXPECT_EQ(b->seq, 7u);
    DynInstPtr c = std::move(b);
    EXPECT_FALSE(b);
    EXPECT_EQ(pool.live(), 1u);
    c = DynInstPtr();
    EXPECT_EQ(pool.live(), 0u);

    // The freed slot is reused, reset to a default instruction.
    DynInstPtr d = pool.acquire();
    EXPECT_EQ(d->seq, 0u);
    EXPECT_EQ(pool.highWater(), 1u);
}

TEST(DynInstPool, SelfAssignmentKeepsTheSlot)
{
    DynInstPool pool;
    DynInstPtr a = pool.acquire();
    a->seq = 9;
    // Assigning a handle to itself, by copy or by move, must keep
    // the instruction it holds.
    DynInstPtr &alias = a;
    a = alias;
    ASSERT_TRUE(a);
    EXPECT_EQ(a->seq, 9u);
    EXPECT_EQ(pool.live(), 1u);
    a = std::move(alias);
    ASSERT_TRUE(a);
    EXPECT_EQ(a->seq, 9u);
    EXPECT_EQ(pool.live(), 1u);

    // Had either assignment dropped the slot, it would now be on the
    // free list twice and two acquires would share it.
    DynInstPtr b = pool.acquire();
    DynInstPtr c = pool.acquire();
    EXPECT_NE(b, c);
    EXPECT_NE(a, b);
    a = nullptr;
    EXPECT_EQ(pool.live(), 2u);
    b = nullptr;
    c = nullptr;
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(pool.highWater(), 3u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(DynInstPool, ReleasedSlotIsPoisoned)
{
    DynInstPool pool;
    DynInstPtr a = pool.acquire();
    const DynInst *raw = a.get();
    EXPECT_FALSE(__asan_address_is_poisoned(raw));
    a = nullptr;
    EXPECT_TRUE(__asan_address_is_poisoned(raw));
    a = pool.acquire();
    EXPECT_EQ(a.get(), raw); // LIFO: the same slot, unpoisoned
    EXPECT_FALSE(__asan_address_is_poisoned(raw));
}
#endif

TEST(DynInstPool, DetailedRunReturnsEverySlot)
{
    // exchange2 at the size the light benchmark workload runs it.
    workloads::WorkloadScale scale;
    scale.graphScale = 8;
    scale.iterations = 700;
    const isa::Program prog = workloads::buildWorkload("exchange2", scale);
    const SimConfig cfg = specConfig({.streams = 4, .entries = 1024});
    Memory mem;
    O3Cpu cpu(cfg, prog, mem);
    cpu.run();
    ASSERT_TRUE(cpu.halted());

    const DynInstPool &pool = O3CpuTestPeer::pool(cpu);
    // Every slot not held by the pipeline is back in the pool.
    EXPECT_EQ(pool.live(), O3CpuTestPeer::inFlight(cpu));
    // Live instructions: the ROB, squashed ones awaiting their
    // writeback event (at most another ROB's worth), and what the FTQ
    // can fetch ahead of rename.
    const CoreConfig &core = cfg.core;
    const std::size_t bound =
        2 * core.robEntries +
        core.ftqEntries * (core.fetchBlockBytes / InstBytes);
    EXPECT_LT(pool.highWater(), bound);
    EXPECT_GT(pool.highWater(), 0u);
}
