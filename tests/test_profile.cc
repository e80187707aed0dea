/**
 * Per-PC profiler: BranchRecord partner / distance bookkeeping, and
 * -- the load-bearing part -- exact
 * reconciliation of the per-PC totals against the core's global
 * counters (no "other" PC bucket) on the cosim sweep workloads, plus
 * the guarantee that profiling never perturbs the simulation itself.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/profile.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

isa::Program
sweepProgram()
{
    workloads::WorkloadScale scale;
    scale.iterations = 250;
    scale.graphScale = 6;
    return workloads::buildWorkload("nested-mispred", scale);
}

std::uint64_t
profileKillSum(const PcProfile &p)
{
    return p.total(&BranchRecord::killKind) +
           p.total(&BranchRecord::killNotExecuted) +
           p.total(&BranchRecord::killRgid) +
           p.total(&BranchRecord::killRgidCapacity);
}

} // namespace

TEST(BranchRecord, SpaceSavingPartners)
{
    BranchRecord r;
    EXPECT_EQ(r.topPartner(), 0u);

    // Fill all four partner slots.
    for (int i = 0; i < 3; ++i)
        r.noteDetection(0x2000, 0);
    for (int i = 0; i < 2; ++i)
        r.noteDetection(0x2004, 0);
    r.noteDetection(0x2008, 0);
    r.noteDetection(0x200c, 0);
    std::uint64_t count = 0;
    EXPECT_EQ(r.topPartner(&count), 0x2000u);
    EXPECT_EQ(count, 3u);

    // A fifth partner evicts the smallest counter and inherits it
    // (space-saving: count becomes smallest + 1 = 2).
    r.noteDetection(0x2010, 0);
    bool present = false;
    for (std::size_t i = 0; i < BranchRecord::NumPartners; ++i)
        if (r.partnerPC[i] == 0x2010) {
            present = true;
            EXPECT_EQ(r.partnerCount[i], 2u);
        }
    EXPECT_TRUE(present);
    EXPECT_EQ(r.topPartner(), 0x2000u);
}

TEST(BranchRecord, ReconvDistanceBuckets)
{
    BranchRecord r;
    // log2-ish buckets: 0 | 1 | 2-3 | 4-7 | 8-15 | 16-31 | 32-63 | >=64.
    const unsigned offsets[] = {0, 1, 2, 3, 4, 7, 8, 15, 16, 32, 64, 1000};
    for (unsigned off : offsets)
        r.noteDetection(0x2000, off);
    EXPECT_EQ(r.reconvDist[0], 1u);
    EXPECT_EQ(r.reconvDist[1], 1u);
    EXPECT_EQ(r.reconvDist[2], 2u);
    EXPECT_EQ(r.reconvDist[3], 2u);
    EXPECT_EQ(r.reconvDist[4], 2u);
    EXPECT_EQ(r.reconvDist[5], 1u);
    EXPECT_EQ(r.reconvDist[6], 1u);
    EXPECT_EQ(r.reconvDist[7], 2u);
}

TEST(BranchRecord, FunnelAlgebra)
{
    BranchRecord r;
    r.squashedInsts = 100;
    r.logged = 60;
    r.covered = 40;
    r.tested = 30;
    r.killKind = 4;
    r.killNotExecuted = 3;
    r.killRgid = 2;
    r.killRgidCapacity = 1;
    r.killBloom = 5;
    r.reused = 15;

    const ReuseFunnel f = r.funnel();
    EXPECT_EQ(f.squashed, 100u);
    EXPECT_EQ(f.tested, 30u);
    EXPECT_EQ(f.rgidPass, 20u);   // tested - non-bloom kills
    EXPECT_EQ(f.hazardPass, 15u); // rgidPass - killBloom
    EXPECT_EQ(f.reused, 15u);
    EXPECT_TRUE(f.monotonic());
}

TEST(Profile, ReconciliationIsExact)
{
    const isa::Program prog = sweepProgram();
    for (SimConfig cfg :
         {specConfig({.streams = 1, .entries = 16}),
          specConfig({.streams = 2, .entries = 64}),
          specConfig({.streams = 4, .entries = 128})}) {
        cfg.profiling = true;
        const RunResult r = runSim(prog, cfg);
        const PcProfile &p = r.profile;
        const std::string what = toString(cfg.reuseKind);
        ASSERT_FALSE(p.empty()) << what;

        // Squashed instructions: summed per cause PC == core counter
        // == funnel entry stage. No "other" bucket to hide slop in.
        EXPECT_EQ(p.total(&BranchRecord::squashedInsts),
                  static_cast<std::uint64_t>(
                      r.stats.get("core.squashedInsts")))
            << what;
        EXPECT_EQ(p.total(&BranchRecord::squashedInsts), r.funnel.squashed)
            << what;

        // Recovery penalty: per-PC slots == the CPI stack's recovery
        // categories, split by squash reason exactly.
        EXPECT_EQ(p.total(&BranchRecord::branchRecoverySlots),
                  r.cpi[CpiCat::BranchRecovery])
            << what;
        EXPECT_EQ(p.total(&BranchRecord::flushRecoverySlots),
                  r.cpi[CpiCat::FlushRecovery])
            << what;

        // Reuse funnel: every stage and kill decomposes per branch PC.
        EXPECT_EQ(p.total(&BranchRecord::logged), r.funnel.logged) << what;
        EXPECT_EQ(p.total(&BranchRecord::covered), r.funnel.covered) << what;
        EXPECT_EQ(p.total(&BranchRecord::tested), r.funnel.tested) << what;
        EXPECT_EQ(p.total(&BranchRecord::reused), r.funnel.reused) << what;
        EXPECT_EQ(p.total(&BranchRecord::reused),
                  static_cast<std::uint64_t>(r.stats.get("reuse.success")))
            << what;
        EXPECT_EQ(profileKillSum(p), r.funnel.killKind +
                                         r.funnel.killNotExecuted +
                                         r.funnel.killRgid +
                                         r.funnel.killRgidCapacity)
            << what;
        EXPECT_EQ(p.total(&BranchRecord::killBloom), r.funnel.killBloom)
            << what;

        // The reconvergence-side ledger balances the branch-side one.
        EXPECT_EQ(p.totalSalvaged(), p.total(&BranchRecord::reused)) << what;

        // Each branch's own mini funnel obeys the stage algebra.
        ASSERT_GT(r.funnel.reused, 0u) << what;
        for (const auto &[pc, b] : p.branches())
            EXPECT_TRUE(b.funnel().monotonic())
                << what << " pc " << std::hex << pc;
    }
}

TEST(Profile, BaselineAttributesSquashesOnly)
{
    SimConfig cfg = specConfig({.scheme = "none"});
    cfg.profiling = true;
    const RunResult r = runSim(sweepProgram(), cfg);
    const PcProfile &p = r.profile;
    ASSERT_FALSE(p.empty());
    EXPECT_GT(p.total(&BranchRecord::squashedInsts), 0u);
    EXPECT_EQ(p.total(&BranchRecord::squashedInsts),
              static_cast<std::uint64_t>(r.stats.get("core.squashedInsts")));
    EXPECT_EQ(p.total(&BranchRecord::branchRecoverySlots),
              r.cpi[CpiCat::BranchRecovery]);
    // No reuse unit: the per-branch funnels stop at squashed.
    EXPECT_EQ(p.total(&BranchRecord::logged), 0u);
    EXPECT_EQ(p.total(&BranchRecord::reused), 0u);
    EXPECT_EQ(p.reconvs().size(), 0u);
}

TEST(Profile, ProfilingDoesNotPerturbTheRun)
{
    const isa::Program prog = sweepProgram();
    for (SimConfig cfg : {specConfig({.scheme = "none"}),
                          specConfig({.streams = 4, .entries = 64})}) {
        cfg.profiling = false;
        const RunResult off = runSim(prog, cfg);
        EXPECT_TRUE(off.profile.empty());

        cfg.profiling = true;
        const RunResult on = runSim(prog, cfg);
        EXPECT_FALSE(on.profile.empty());

        EXPECT_EQ(off.cycles, on.cycles) << toString(cfg.reuseKind);
        EXPECT_EQ(off.insts, on.insts);
        EXPECT_TRUE(off.cpi == on.cpi);
        EXPECT_TRUE(off.funnel == on.funnel);
        for (const auto &[key, value] : off.stats.scalars())
            EXPECT_EQ(value, on.stats.get(key)) << key;
    }
}

TEST(Profile, JsonAndFoldedExports)
{
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.profiling = true;
    const RunResult r = runSim(sweepProgram(), cfg);

    std::ostringstream json;
    writeJson(json, r.profile);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"branches\""), std::string::npos);
    EXPECT_NE(j.find("\"reconv_points\""), std::string::npos);
    EXPECT_NE(j.find("\"branch_recovery_slots\""), std::string::npos);
    EXPECT_NE(j.find("\"partners\""), std::string::npos);

    // Folded lines: `branchPC;reconvPC;category slots`, and the slot
    // total over the recovery categories reconciles with the CPI stack.
    std::ostringstream folded;
    writeFolded(folded, r.profile, "");
    std::istringstream lines(folded.str());
    std::string line;
    std::uint64_t recoverySlots = 0;
    std::size_t nLines = 0;
    while (std::getline(lines, line)) {
        ++nLines;
        ASSERT_EQ(line.compare(0, 2, "0x"), 0) << line;
        const std::size_t sep = line.rfind(' ');
        ASSERT_NE(sep, std::string::npos) << line;
        if (line.find(";branch_recovery ") != std::string::npos ||
            line.find(";flush_recovery ") != std::string::npos)
            recoverySlots += std::stoull(line.substr(sep + 1));
    }
    EXPECT_GT(nLines, 0u);
    EXPECT_EQ(recoverySlots, r.cpi[CpiCat::BranchRecovery] +
                                 r.cpi[CpiCat::FlushRecovery]);

    // A run-name root frame is prepended on request (multi-run files).
    std::ostringstream named;
    writeFolded(named, r.profile, "rgid4x64");
    EXPECT_EQ(named.str().compare(0, 9, "rgid4x64;"), 0);
}
