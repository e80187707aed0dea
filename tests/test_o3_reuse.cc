/**
 * Integration tests of squash reuse on the full core: reuse events
 * occur and help on reuse-friendly code, never fire without
 * mispredictions, and the paper's per-benchmark mechanisms (xz's
 * verification failures, mcf's memory-bound flatness) are visible.
 */

#include <gtest/gtest.h>

#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "isa/assembler.hh"
#include "workloads/micro.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

isa::Program
h2pKernel(unsigned iters)
{
    // A hashed H2P branch guarding a small body, followed by a long
    // control-independent tail: the canonical squash-reuse scenario.
    workloads::MicroParams params;
    params.iterations = iters;
    return workloads::makeNestedMispred(params);
}

} // namespace

TEST(O3Reuse, ReuseEventsOccurAndHelp)
{
    const isa::Program prog = h2pKernel(1500);
    const RunResult base = runSim(prog, specConfig({.scheme = "none"}));
    const RunResult rgid = runSim(prog,
                                  specConfig({.streams = 4, .entries = 64}));
    EXPECT_GT(rgid.stats.get("reuse.success"), 500.0);
    EXPECT_GT(rgid.stats.get("reuse.reconvDetected"), 100.0);
    EXPECT_LT(rgid.cycles, base.cycles); // reuse must help here
}

TEST(O3Reuse, NoMispredictsNoReuse)
{
    // Fully predictable loop: nothing is ever squashed, so nothing
    // can be reused; the mechanism must not perturb the pipeline.
    const isa::Program prog = isa::assembleProgram(R"(
        li t0, 0
        li t1, 2000
    loop:
        addi t2, t2, 3
        xori t2, t2, 5
        addi t0, t0, 1
        blt t0, t1, loop
        halt
    )");
    const RunResult base = runSim(prog, specConfig({.scheme = "none"}));
    const RunResult rgid = runSim(prog,
                                  specConfig({.streams = 4, .entries = 64}));
    EXPECT_EQ(rgid.stats.get("reuse.success"), 0.0);
    // Warmup-only squashes allowed; cycle counts must be near equal.
    EXPECT_NEAR(static_cast<double>(rgid.cycles),
                static_cast<double>(base.cycles),
                static_cast<double>(base.cycles) * 0.02);
}

TEST(O3Reuse, MultiStreamFindsMoreReconvergence)
{
    const isa::Program prog = h2pKernel(1500);
    const RunResult one = runSim(prog,
                                 specConfig({.streams = 1, .entries = 64}));
    const RunResult four = runSim(prog,
                                  specConfig({.streams = 4, .entries = 64}));
    // With more streams, distance >= 2 reconvergence appears.
    const double fourDistant = four.stats.get("reuse.distance2") +
                               four.stats.get("reuse.distance3") +
                               four.stats.get("reuse.distance4");
    EXPECT_EQ(one.stats.get("reuse.distance2"), 0.0);
    EXPECT_GT(fourDistant, 0.0);
    EXPECT_GE(four.stats.get("reuse.success"),
              one.stats.get("reuse.success"));
}

TEST(O3Reuse, ReuseNeverExceedsSquashedWork)
{
    const isa::Program prog = h2pKernel(800);
    const RunResult r = runSim(prog,
                               specConfig({.streams = 4, .entries = 64}));
    EXPECT_LE(r.stats.get("reuse.success"),
              r.stats.get("core.squashedInsts"));
    // Each detection claims a stream; a stream is re-detectable only
    // after a squash aborts its session, and at most numStreams (4)
    // sessions can be aborted per squash.
    EXPECT_LE(r.stats.get("reuse.reconvDetected"),
              r.stats.get("reuse.streamsCaptured") +
                  4 * r.stats.get("reuse.squashEvents"));
}

TEST(O3Reuse, BloomModeAlsoCorrectAndActive)
{
    workloads::MicroParams params;
    params.iterations = 800;
    const isa::Program prog = workloads::makeNestedMispred(params);
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.reuse.useBloomFilter = true;
    const RunResult bloom = runSim(prog, cfg);
    const RunResult base = runSim(prog, specConfig({.scheme = "none"}));
    EXPECT_GT(bloom.stats.get("reuse.success"), 0.0);
    // With the Bloom filter there is no re-execute verification.
    EXPECT_EQ(bloom.stats.get("core.verifyOk"), 0.0);
    EXPECT_EQ(bloom.archRegs[22], base.archRegs[22]); // checksum equal
}

TEST(O3Reuse, RegisterPressureIsHandled)
{
    // A tiny physical register file forces the policy-(5) reclaim
    // path; results must stay correct.
    const isa::Program prog = h2pKernel(400);
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.core.physRegs = 80; // 32 arch + few in flight + reservations
    const RunResult small = runSim(prog, cfg);
    const RunResult base = runSim(prog, specConfig({.scheme = "none"}));
    EXPECT_TRUE(small.halted);
    EXPECT_EQ(small.archRegs[22], base.archRegs[22]);
    EXPECT_GT(small.stats.get("reuse.pressureReclaims") +
                  small.stats.get("core.renameStallFreeList"),
              0.0);
}

TEST(O3Reuse, DisablingLoadReuseStillCorrect)
{
    workloads::WorkloadScale scale;
    scale.graphScale = 6;
    const isa::Program prog = workloads::buildWorkload("bfs", scale);
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.reuse.reuseLoads = false;
    const RunResult r = runSim(prog, cfg);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.stats.get("reuse.loadsReused"), 0.0);
}

TEST(O3Reuse, VpnRestrictionCanBeDisabled)
{
    const isa::Program prog = h2pKernel(400);
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.reuse.restrictVpn = false;
    const RunResult r = runSim(prog, cfg);
    EXPECT_TRUE(r.halted);
    EXPECT_GT(r.stats.get("reuse.success"), 0.0);
}
