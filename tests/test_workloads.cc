/**
 * Workload-construction tests: every registered benchmark assembles,
 * runs to completion on the functional emulator, and exhibits the
 * branch behaviour its SPEC counterpart is meant to model (H2P
 * benchmarks mispredict heavily; exchange2 predicts almost perfectly;
 * mcf misses in cache).
 */

#include <gtest/gtest.h>

#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "sim/func_emu.hh"
#include "workloads/micro.hh"
#include "workloads/registry.hh"
#include "workloads/speclike.hh"

using namespace mssr;
using namespace mssr::workloads;

namespace
{

WorkloadScale
smallScale()
{
    WorkloadScale scale;
    scale.graphScale = 7;
    scale.iterations = 300;
    return scale;
}

} // namespace

TEST(Workloads, SuitesEnumerate)
{
    EXPECT_EQ(suiteWorkloads("spec2006").size(), 5u);
    EXPECT_EQ(suiteWorkloads("spec2017").size(), 6u);
    EXPECT_EQ(suiteWorkloads("gap").size(), 6u);
    EXPECT_EQ(suiteWorkloads("micro").size(), 2u);
    EXPECT_THROW(suiteWorkloads("nope"), SimFatal);
    EXPECT_THROW(buildWorkload("nope", smallScale()), SimFatal);
}

TEST(Workloads, EveryWorkloadRunsToHalt)
{
    const WorkloadScale scale = smallScale();
    for (const std::string suite : {"spec2006", "spec2017", "gap",
                                    "micro"}) {
        for (const Workload &w : suiteWorkloads(suite)) {
            const isa::Program prog = buildWorkload(w.name, scale);
            Memory mem;
            FuncEmu emu(prog, mem);
            emu.run(50'000'000);
            EXPECT_TRUE(emu.halted()) << w.name << " did not halt";
            EXPECT_GT(emu.instret(), 100u) << w.name << " trivially short";
        }
    }
}

TEST(Workloads, H2PKernelsMispredictHeavily)
{
    SimConfig cfg = specConfig({.scheme = "none"});
    for (const std::string name : {"gobmk", "astar", "leela"}) {
        const isa::Program prog = buildWorkload(name, smallScale());
        const RunResult r = runSim(prog, cfg);
        EXPECT_GT(r.stats.get("core.condMispredictRate"), 0.03)
            << name << " should be hard to predict";
    }
}

TEST(Workloads, Exchange2IsPredictable)
{
    const isa::Program prog = buildWorkload("exchange2", smallScale());
    const RunResult r = runSim(prog, specConfig({.scheme = "none"}));
    EXPECT_LT(r.stats.get("core.condMispredictRate"), 0.02);
}

TEST(Workloads, McfIsMemoryBound)
{
    const isa::Program prog = buildWorkload("mcf", smallScale());
    const RunResult r = runSim(prog, specConfig({.scheme = "none"}));
    // Pointer chase over 4MB: L2 misses dominate and IPC collapses.
    EXPECT_GT(r.stats.get("l2.misses"), 100.0);
    EXPECT_LT(r.ipc, 0.5);
}

TEST(Workloads, XzProducesVerificationTraffic)
{
    SpecParams params;
    params.iterations = 600;
    const isa::Program prog = makeXzLike(params);
    const RunResult r = runSim(prog,
                               specConfig({.streams = 4, .entries = 64}));
    // Reused loads exist, and some verifications fail because the
    // match loop's stores alias them (paper section 4.1.1 on xz).
    EXPECT_GT(r.stats.get("reuse.loadsReused"), 0.0);
    EXPECT_GT(r.stats.get("core.verifyOk") +
                  r.stats.get("core.verifyFailFlushes"),
              0.0);
}

TEST(Workloads, MicroVariantsDifferInResolutionOrder)
{
    MicroParams params;
    params.iterations = 1500;
    const RunResult nested =
        runSim(makeNestedMispred(params),
               specConfig({.streams = 4, .entries = 64}));
    const RunResult linear =
        runSim(makeLinearMispred(params),
               specConfig({.streams = 4, .entries = 64}));
    // Both variants reuse; nested-mispred (out-of-order resolution)
    // must exhibit hardware-induced reconvergence.
    EXPECT_GT(nested.stats.get("reuse.reconvHardware"), 0.0);
    EXPECT_GT(nested.stats.get("reuse.success"), 0.0);
    EXPECT_GT(linear.stats.get("reuse.success"), 0.0);
}

TEST(Workloads, ScaleFromEnvDefaults)
{
    // Without env overrides the defaults apply.
    const WorkloadScale scale = WorkloadScale::fromEnv();
    EXPECT_GE(scale.graphScale, 1u);
    EXPECT_GE(scale.iterations, 1u);
}
