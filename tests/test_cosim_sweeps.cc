/**
 * Parameterized co-simulation sweeps (TEST_P): the architectural-
 * equivalence invariant must hold for every combination of reuse
 * scheme, structure sizing and workload family. These are the
 * property-style tests of the master invariant: squash reuse never
 * changes architectural results.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "cosim_triage.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "sim/func_emu.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

void
expectMatch(const isa::Program &prog, const SimConfig &cfg,
            const std::string &what)
{
    Memory refMem;
    FuncEmu emu(prog, refMem);
    emu.run(50'000'000);
    ASSERT_TRUE(emu.halted()) << what;

    SimConfig traced = cfg;
    CosimTriage triage(what, traced); // dumps last events on divergence
    Memory o3Mem;
    const RunResult r = runSim(prog, traced, &o3Mem);
    ASSERT_TRUE(r.halted) << what;
    EXPECT_EQ(r.insts, emu.instret()) << what;
    for (unsigned reg = 0; reg < NumArchRegs; ++reg)
        ASSERT_EQ(r.archRegs[reg], emu.reg(static_cast<ArchReg>(reg)))
            << what << " reg " << isa::regName(static_cast<ArchReg>(reg));
    ASSERT_TRUE(o3Mem.equals(refMem)) << what;
}

} // namespace

// ---------------------------------------------------------------------
// Sweep 1: RGID structure sizing on a reuse-heavy workload.

class RgidSizingCosim
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(RgidSizingCosim, ArchitecturallyInvisible)
{
    const auto [streams, entries] = GetParam();
    workloads::WorkloadScale scale;
    scale.iterations = 250;
    scale.graphScale = 6;
    const isa::Program prog =
        workloads::buildWorkload("nested-mispred", scale);
    expectMatch(prog, specConfig({.streams = streams, .entries = entries}),
                "rgid " + std::to_string(streams) + "x" +
                    std::to_string(entries));
}

// 4096 log entries give 1024-block WPBs, which take the >64-entry
// reconvergence scan: the Figure-10 upper-bound sizing.
INSTANTIATE_TEST_SUITE_P(
    Sizes, RgidSizingCosim,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(16u, 64u, 128u, 4096u)));

// ---------------------------------------------------------------------
// Sweep 2: Register Integration table geometries.

class RiSizingCosim
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(RiSizingCosim, ArchitecturallyInvisible)
{
    const auto [sets, ways] = GetParam();
    workloads::WorkloadScale scale;
    scale.iterations = 250;
    const isa::Program prog =
        workloads::buildWorkload("linear-mispred", scale);
    expectMatch(prog,
                specConfig({.scheme = "regint", .sets = sets, .ways = ways}),
                "ri " + std::to_string(sets) + "x" + std::to_string(ways));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RiSizingCosim,
                         ::testing::Combine(::testing::Values(16u, 64u,
                                                              128u),
                                            ::testing::Values(1u, 2u, 4u)));

// ---------------------------------------------------------------------
// Sweep 3: every workload under every reuse scheme.

class WorkloadSchemeCosim
    : public ::testing::TestWithParam<std::tuple<std::string, ReuseKind>>
{
};

TEST_P(WorkloadSchemeCosim, ArchitecturallyInvisible)
{
    const auto [name, kind] = GetParam();
    workloads::WorkloadScale scale;
    scale.iterations = 200;
    scale.graphScale = 6;
    const isa::Program prog = workloads::buildWorkload(name, scale);
    SimConfig cfg;
    cfg.reuseKind = kind;
    expectMatch(prog, cfg, name + "/" + toString(kind));
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadSchemeCosim,
    ::testing::Combine(::testing::Values("astar", "gobmk", "omnetpp",
                                         "leela", "xz", "sjeng",
                                         "exchange2", "bfs", "cc", "sssp",
                                         "tc", "pr", "bc"),
                       ::testing::Values(ReuseKind::None, ReuseKind::Rgid,
                                         ReuseKind::RegInt)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               toString(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Sweep 4: core-structure sizing stress under reuse.

class CoreSizingCosim : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoreSizingCosim, ArchitecturallyInvisible)
{
    const unsigned rob = GetParam();
    workloads::WorkloadScale scale;
    scale.iterations = 200;
    const isa::Program prog =
        workloads::buildWorkload("nested-mispred", scale);
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.core.robEntries = rob;
    cfg.core.physRegs = rob; // keep preg count matched to the ROB
    expectMatch(prog, cfg, "rob " + std::to_string(rob));
}

INSTANTIATE_TEST_SUITE_P(Robs, CoreSizingCosim,
                         ::testing::Values(64u, 128u, 256u));

// The issue queues, LSQ and FTQ too: a small core whose rings wrap and
// fill all the time, and one whose issue queues span several 64-bit
// ready-mask words.

namespace
{

struct QueueSizing
{
    const char *name;
    unsigned robEntries;
    unsigned intRvsEntries;
    unsigned memRvsEntries;
    unsigned loadQueueEntries;
    unsigned storeQueueEntries;
    unsigned ftqEntries;
};

// gtest would otherwise print the raw bytes, `name`'s address among
// them, into each test's listed name, which then changes every run.
void
PrintTo(const QueueSizing &q, std::ostream *os)
{
    *os << '{' << q.robEntries << ", " << q.intRvsEntries << ", "
        << q.memRvsEntries << ", " << q.loadQueueEntries << ", "
        << q.storeQueueEntries << ", " << q.ftqEntries << '}';
}

} // namespace

class QueueSizingCosim : public ::testing::TestWithParam<QueueSizing>
{
};

TEST_P(QueueSizingCosim, ArchitecturallyInvisible)
{
    const QueueSizing &q = GetParam();
    workloads::WorkloadScale scale;
    scale.iterations = 200;
    const isa::Program prog =
        workloads::buildWorkload("nested-mispred", scale);
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.core.robEntries = q.robEntries;
    cfg.core.physRegs = q.robEntries + NumArchRegs;
    cfg.core.intRvsEntries = q.intRvsEntries;
    cfg.core.memRvsEntries = q.memRvsEntries;
    cfg.core.loadQueueEntries = q.loadQueueEntries;
    cfg.core.storeQueueEntries = q.storeQueueEntries;
    cfg.core.ftqEntries = q.ftqEntries;
    expectMatch(prog, cfg, std::string("queues ") + q.name);
}

INSTANTIATE_TEST_SUITE_P(
    Queues, QueueSizingCosim,
    ::testing::Values(QueueSizing{"small", 8, 8, 6, 5, 4, 3},
                      QueueSizing{"large", 256, 130, 96, 120, 100, 80}),
    [](const auto &info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------
// Sweep 5: predictor choice changes timing, never results.

class PredictorCosim
    : public ::testing::TestWithParam<BranchPredictorKind>
{
};

TEST_P(PredictorCosim, ArchitecturallyInvisible)
{
    workloads::WorkloadScale scale;
    scale.iterations = 200;
    const isa::Program prog = workloads::buildWorkload("gobmk", scale);
    SimConfig cfg = specConfig({.streams = 2, .entries = 64});
    cfg.core.predictor = GetParam();
    expectMatch(prog, cfg, toString(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Kinds, PredictorCosim,
                         ::testing::Values(BranchPredictorKind::Bimodal,
                                           BranchPredictorKind::Gshare,
                                           BranchPredictorKind::TageScL),
                         [](const auto &info) {
                             std::string name = toString(info.param);
                             for (auto &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });
