/**
 * BatchRunner: the parallel batch engine must be an exact drop-in for
 * sequential runSim loops -- element-wise identical results in
 * submission order at every worker count -- plus its error contract
 * and basic behavior (empty/single batches, MSSR_JOBS).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <thread>

#include "driver/batch_runner.hh"
#include "driver/job_spec.hh"
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
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.halted, b.halted) << what;
    EXPECT_EQ(a.archRegs, b.archRegs) << what;
    EXPECT_EQ(a.stats.scalars(), b.stats.scalars()) << what;
}

/** A small cross-product of workloads and schemes. */
std::vector<BatchJob>
makeJobs(const std::vector<isa::Program> &programs)
{
    const std::vector<SimConfig> cfgs = {
        specConfig({.scheme = "none"}),
        specConfig({.streams = 2, .entries = 64}),
        specConfig({.scheme = "regint", .sets = 64, .ways = 2})};
    std::vector<BatchJob> jobs;
    for (std::size_t p = 0; p < programs.size(); ++p)
        for (std::size_t c = 0; c < cfgs.size(); ++c)
            jobs.push_back({"job" + std::to_string(p) + "." +
                                std::to_string(c),
                            &programs[p], cfgs[c],
                            {}});
    return jobs;
}

std::vector<isa::Program>
makePrograms()
{
    workloads::WorkloadScale scale;
    scale.iterations = 150;
    scale.graphScale = 6;
    std::vector<isa::Program> programs;
    programs.push_back(workloads::buildWorkload("nested-mispred", scale));
    programs.push_back(workloads::buildWorkload("bfs", scale));
    return programs;
}

} // namespace

TEST(BatchRunner, MatchesSequentialRunSim)
{
    const std::vector<isa::Program> programs = makePrograms();
    const std::vector<BatchJob> jobs = makeJobs(programs);

    std::vector<RunResult> expected;
    for (const auto &job : jobs)
        expected.push_back(runSim(*job.program, job.config));

    const BatchRunner runner(4);
    const std::vector<RunResult> got = runner.run(jobs);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectIdentical(got[i], expected[i], jobs[i].name);
}

TEST(BatchRunner, SubmissionOrderPreservedAtEveryWorkerCount)
{
    const std::vector<isa::Program> programs = makePrograms();
    const std::vector<BatchJob> jobs = makeJobs(programs);
    const std::vector<RunResult> reference = BatchRunner(1).run(jobs);

    for (unsigned threads = 1; threads <= 8; ++threads) {
        const std::vector<RunResult> got = BatchRunner(threads).run(jobs);
        ASSERT_EQ(got.size(), reference.size()) << threads << " threads";
        for (std::size_t i = 0; i < got.size(); ++i)
            expectIdentical(got[i], reference[i],
                            std::to_string(threads) + " threads, " +
                                jobs[i].name);
    }
}

TEST(BatchRunner, EmptyAndSingleJobBatches)
{
    const BatchRunner runner(4);
    EXPECT_TRUE(runner.run({}).empty());

    const std::vector<isa::Program> programs = makePrograms();
    const SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    std::vector<BatchJob> one = {{"solo", &programs[0], cfg, {}}};
    const std::vector<RunResult> got = runner.run(one);
    ASSERT_EQ(got.size(), 1u);
    expectIdentical(got[0], runSim(programs[0], cfg), "solo");
    EXPECT_TRUE(got[0].halted);
}

TEST(BatchRunner, RecordsHostTiming)
{
    const std::vector<isa::Program> programs = makePrograms();
    const std::vector<RunResult> got =
        BatchRunner(2).run({{"timed", &programs[0],
                             specConfig({.streams = 2, .entries = 64}), {}}});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_GT(got[0].hostSeconds, 0.0);
    EXPECT_GT(got[0].kips, 0.0);
}

TEST(BatchRunner, InspectRunsPerJob)
{
    const std::vector<isa::Program> programs = makePrograms();
    std::vector<int> hits(3, 0);
    std::vector<BatchJob> jobs;
    for (int i = 0; i < 3; ++i) {
        BatchJob j{"inspect" + std::to_string(i), &programs[0],
                   specConfig({.streams = 1, .entries = 64}),
                   {}};
        j.inspect = [&hits, i](const O3Cpu &) { ++hits[i]; };
        jobs.push_back(std::move(j));
    }
    BatchRunner(3).run(jobs);
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(BatchRunner, FailedJobStopsTheBatch)
{
    // A core with no physical register beyond the architectural ones
    // panics while it is built. After that no worker starts another
    // job, and the panic reaches the caller once the workers join.
    const std::vector<isa::Program> programs = makePrograms();
    std::atomic<unsigned> ran{0}, reported{0};
    const auto batch = [&](std::size_t n, std::optional<std::size_t> bad) {
        BatchJob job{"job", &programs[0],
                     specConfig({.streams = 4, .entries = 64}),
                     [&ran](const O3Cpu &) { ++ran; }};
        std::vector<BatchJob> jobs(n, job);
        if (bad)
            jobs[*bad].config.core.physRegs = NumArchRegs;
        ran = reported = 0; // each batch counts from zero
        return jobs;
    };

    // One worker: the jobs after the failing one neither run nor report.
    BatchRunner one(1);
    one.setJobDone([&](std::size_t, const RunResult &) { ++reported; });
    EXPECT_THROW(one.run(batch(4, 1)), SimPanic);
    EXPECT_EQ(ran.load(), 1u);
    EXPECT_EQ(reported.load(), 1u);

    // Four workers, failing job first: the workers stop taking jobs,
    // so fewer than all 31 others run and report.
    BatchRunner four(4);
    four.setJobDone([&](std::size_t, const RunResult &) { ++reported; });
    EXPECT_THROW(four.run(batch(32, 0)), SimPanic);
    EXPECT_LT(ran.load(), 31u);
    EXPECT_LT(reported.load(), 31u);

    // The same runner then runs a clean batch whole.
    const std::vector<RunResult> clean = four.run(batch(32, std::nullopt));
    EXPECT_EQ(ran.load(), 32u);
    EXPECT_EQ(reported.load(), 32u);
    for (const RunResult &r : clean)
        EXPECT_TRUE(r.halted);
}

TEST(BatchRunner, MssrJobsEnvOverridesDefault)
{
    setenv("MSSR_JOBS", "3", 1);
    EXPECT_EQ(BatchRunner::defaultThreads(), 3u);
    EXPECT_EQ(BatchRunner().threads(), 3u);
    setenv("MSSR_JOBS", "not-a-number", 1);
    EXPECT_GE(BatchRunner::defaultThreads(), 1u);
    unsetenv("MSSR_JOBS");
    EXPECT_GE(BatchRunner::defaultThreads(), 1u);
    EXPECT_EQ(BatchRunner(5).threads(), 5u);
}

TEST(BatchRunner, MssrJobsRejectsGarbageLoudly)
{
    // The seed strtol'd the prefix and silently accepted "4x" as 4 and
    // fell back on "0"/garbage without a word. Every malformed value
    // must now fall back to hardware concurrency AND warn on stderr.
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    for (const char *bad : {"4x", "0", "-2", "", " 3", "99999999"}) {
        setenv("MSSR_JOBS", bad, 1);
        testing::internal::CaptureStderr();
        EXPECT_EQ(BatchRunner::defaultThreads(), hw)
            << "MSSR_JOBS='" << bad << "'";
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("MSSR_JOBS"), std::string::npos)
            << "no warning for MSSR_JOBS='" << bad << "'";
    }
    unsetenv("MSSR_JOBS");
}
