/**
 * Cycle-accounting reconciliation: the CPI stack must be a complete,
 * non-overlapping decomposition of every dispatch slot (slots sum to
 * exactly cycles x dispatchWidth -- there is no "other" category to
 * absorb accounting bugs), and the squash-reuse funnel must be
 * monotone and reconcile with the core's own squash/reuse/verify
 * counters. Runs a reuse-heavy workload and a no-reuse baseline so
 * both the salvage path and the all-zero funnel tail are covered.
 */

#include <gtest/gtest.h>

#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

isa::Program
reuseHeavyProgram()
{
    workloads::WorkloadScale scale;
    scale.iterations = 200;
    return workloads::buildWorkload("nested-mispred", scale);
}

std::uint64_t
killSum(const ReuseFunnel &f)
{
    return f.killKind + f.killNotExecuted + f.killRgid + f.killRgidCapacity;
}

} // namespace

TEST(Accounting, CpiSlotsSumToCyclesTimesWidth)
{
    const isa::Program prog = reuseHeavyProgram();
    for (const SimConfig &cfg :
         {specConfig({.scheme = "none"}),
          specConfig({.streams = 4, .entries = 64}),
          specConfig({.scheme = "regint", .sets = 64, .ways = 4})}) {
        const RunResult r = runSim(prog, cfg);
        ASSERT_GT(r.cycles, 0u) << toString(cfg.reuseKind);
        EXPECT_EQ(r.cpi.total(),
                  r.cycles * static_cast<std::uint64_t>(r.dispatchWidth))
            << toString(cfg.reuseKind);
        // The exported scalars are the same ledger.
        for (std::size_t i = 0; i < NumCpiCats; ++i) {
            const CpiCat cat = static_cast<CpiCat>(i);
            EXPECT_EQ(r.stats.get(std::string("cpi.") + cpiCatKey(cat)),
                      static_cast<double>(r.cpi[cat]))
                << cpiCatKey(cat);
        }
    }
}

TEST(Accounting, FunnelMonotoneAndReconciled)
{
    const RunResult r = runSim(reuseHeavyProgram(),
                               specConfig({.streams = 4, .entries = 64}));
    const ReuseFunnel &f = r.funnel;

    // This workload must actually exercise the funnel end to end.
    ASSERT_GT(f.squashed, 0u);
    ASSERT_GT(f.reused, 0u);

    EXPECT_TRUE(f.monotonic());
    for (std::size_t i = 1; i < ReuseFunnel::NumStages; ++i)
        EXPECT_LE(f.stage(i), f.stage(i - 1)) << ReuseFunnel::stageKey(i);

    // Stage algebra is exact: every first-time reuse test either
    // passes a gate or increments exactly one kill counter.
    EXPECT_EQ(f.tested - f.rgidPass, killSum(f));
    EXPECT_EQ(f.rgidPass - f.hazardPass, f.killBloom);
    EXPECT_EQ(f.hazardPass, f.reused);

    // Reconciliation with the core's own counters.
    EXPECT_EQ(static_cast<double>(f.squashed),
              r.stats.get("core.squashedInsts"));
    EXPECT_EQ(static_cast<double>(f.reused), r.stats.get("reuse.success"));
    EXPECT_EQ(static_cast<double>(f.verifyOk), r.stats.get("core.verifyOk"));
    EXPECT_EQ(static_cast<double>(f.verifyFail),
              r.stats.get("core.verifyFailFlushes"));

    // Every reused instruction renamed exactly once as reused, so the
    // salvaged dispatch slots equal the funnel's terminal stage.
    EXPECT_EQ(r.cpi[CpiCat::ReuseSalvaged], f.reused);
}

TEST(Accounting, BaselineFunnelStopsAtSquashed)
{
    const RunResult r = runSim(reuseHeavyProgram(),
                               specConfig({.scheme = "none"}));
    EXPECT_GT(r.funnel.squashed, 0u);
    for (std::size_t i = 1; i < ReuseFunnel::NumStages; ++i)
        EXPECT_EQ(r.funnel.stage(i), 0u) << ReuseFunnel::stageKey(i);
    EXPECT_EQ(r.cpi[CpiCat::ReuseSalvaged], 0u);
    EXPECT_TRUE(r.funnel.monotonic());
}

TEST(Accounting, RegIntSalvageShowsInCpiStack)
{
    // Register Integration adopts results through a different
    // mechanism (no squash log), so the funnel stages past "squashed"
    // stay zero while the CPI stack still attributes its salvaged
    // slots -- one integration per salvaged dispatch slot.
    const RunResult r =
        runSim(reuseHeavyProgram(),
               specConfig({.scheme = "regint", .sets = 64, .ways = 4}));
    EXPECT_EQ(r.funnel.logged, 0u);
    EXPECT_EQ(static_cast<double>(r.cpi[CpiCat::ReuseSalvaged]),
              r.stats.get("ri.integrations"));
}

TEST(Accounting, CpiStackDifferenceAndFractions)
{
    CpiStack a;
    a.charge(CpiCat::Base, 30);
    a.charge(CpiCat::Backpressure, 10);
    CpiStack b = a;
    b.charge(CpiCat::Base, 2);
    b.charge(CpiCat::ReuseSalvaged, 8);

    // Stacks add element-wise (the sampled-window merge).
    CpiStack sum = a;
    sum += b;
    EXPECT_EQ(sum[CpiCat::Base], 62u);
    EXPECT_EQ(sum[CpiCat::ReuseSalvaged], 8u);
    EXPECT_EQ(sum[CpiCat::Backpressure], 20u);
    EXPECT_EQ(sum.total(), a.total() + b.total());

    EXPECT_DOUBLE_EQ(a.fraction(CpiCat::Base), 0.75);
    EXPECT_DOUBLE_EQ(a.cpiContribution(CpiCat::Base, 10, 3), 1.0);

    CpiStack empty;
    EXPECT_DOUBLE_EQ(empty.fraction(CpiCat::Base), 0.0);
    EXPECT_DOUBLE_EQ(empty.cpiContribution(CpiCat::Base, 0, 3), 0.0);
}

TEST(Accounting, FunnelStageKeysAndMonotonic)
{
    ReuseFunnel f;
    f.squashed = 10;
    f.logged = 6;
    f.covered = 5;
    f.tested = 4;
    f.rgidPass = 2;
    f.hazardPass = 2;
    f.reused = 2;
    EXPECT_TRUE(f.monotonic());
    EXPECT_STREQ(ReuseFunnel::stageKey(0), "squashed");
    EXPECT_STREQ(ReuseFunnel::stageKey(6), "reused");
    EXPECT_EQ(f.stage(0), 10u);
    EXPECT_EQ(f.stage(6), 2u);

    f.covered = 7; // exceeds logged
    EXPECT_FALSE(f.monotonic());
}
