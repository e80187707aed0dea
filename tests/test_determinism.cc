/**
 * Determinism: the simulator must be bit-reproducible -- identical
 * configurations produce identical cycle counts, statistics and
 * architectural results. The benchmark harness and EXPERIMENTS.md
 * rely on this.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/batch_runner.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

void
expectIdentical(const RunResult &a, const RunResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.insts, b.insts) << what;
    EXPECT_EQ(a.archRegs, b.archRegs) << what;
    EXPECT_TRUE(a.cpi == b.cpi) << what << " CPI stack";
    EXPECT_TRUE(a.funnel == b.funnel) << what << " reuse funnel";
    for (const auto &[key, value] : a.stats.scalars())
        EXPECT_EQ(value, b.stats.get(key)) << what << " stat " << key;
}

} // namespace

TEST(Determinism, RepeatedRunsAreIdentical)
{
    workloads::WorkloadScale scale;
    scale.iterations = 400;
    scale.graphScale = 7;
    for (const std::string name : {"gobmk", "bfs", "xz"}) {
        const isa::Program prog = workloads::buildWorkload(name, scale);
        for (const SimConfig &cfg :
             {specConfig({.scheme = "none"}),
              specConfig({.streams = 4, .entries = 64}),
              specConfig({.scheme = "regint", .sets = 64, .ways = 4})}) {
            const RunResult first = runSim(prog, cfg);
            const RunResult second = runSim(prog, cfg);
            expectIdentical(first, second,
                            name + "/" + toString(cfg.reuseKind));
        }
    }
}

TEST(Determinism, RebuiltWorkloadIsIdentical)
{
    workloads::WorkloadScale scale;
    scale.iterations = 300;
    const isa::Program a = workloads::buildWorkload("astar", scale);
    const isa::Program b = workloads::buildWorkload("astar", scale);
    EXPECT_EQ(a.numInsts(), b.numInsts());
    for (Addr pc = a.codeBase(); pc < a.codeEnd(); pc += InstBytes)
        ASSERT_EQ(a.instAt(pc), b.instAt(pc)) << std::hex << pc;
    const SimConfig cfg = specConfig({.streams = 2, .entries = 64});
    expectIdentical(runSim(a, cfg), runSim(b, cfg), "rebuilt astar");
}

TEST(Determinism, AccountingIdenticalAcrossWorkerCounts)
{
    // The CPI stack and funnel are part of the deterministic result
    // surface: a 4-worker batch must produce byte-identical accounting
    // to a sequential one.
    workloads::WorkloadScale scale;
    scale.iterations = 300;
    scale.graphScale = 7;
    const isa::Program mispred =
        workloads::buildWorkload("nested-mispred", scale);
    const isa::Program bfs = workloads::buildWorkload("bfs", scale);

    std::vector<BatchJob> jobs;
    for (const isa::Program *prog : {&mispred, &bfs}) {
        for (SimConfig cfg :
             {specConfig({.scheme = "none"}),
              specConfig({.streams = 4, .entries = 64}),
              specConfig({.scheme = "regint", .sets = 64, .ways = 4})}) {
            cfg.profiling = true;
            jobs.push_back({"job", prog, cfg, {}});
        }
    }

    const std::vector<RunResult> serial = BatchRunner(1).run(jobs);
    const std::vector<RunResult> parallel = BatchRunner(4).run(jobs);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const RunResult &a = serial[i];
        const RunResult &b = parallel[i];
        expectIdentical(a, b, "job " + std::to_string(i));

        // The per-PC profile is part of the same surface: identical
        // record-by-record and byte-identical in its JSON export.
        EXPECT_TRUE(a.profile == b.profile) << "job " << i << " profile";
        EXPECT_FALSE(a.profile.empty()) << "job " << i;
        std::ostringstream ja, jb;
        writeJson(ja, a.profile);
        writeJson(jb, b.profile);
        EXPECT_EQ(ja.str(), jb.str()) << "job " << i << " profile JSON";
    }
}
