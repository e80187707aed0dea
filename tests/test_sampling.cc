/**
 * Sampled simulation engine: Student-t critical values, population
 * estimates, the checkpoint schedule scan (boundary edge cases,
 * store reuse, history rings), the sampled batch runner's
 * determinism / merge invariants / config rejection / shared warm
 * states / completion hooks / drain, and the functional
 * cache-warming replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "common/pipeview.hh"
#include "common/serialize.hh"
#include "driver/job_spec.hh"
#include "driver/sampled_runner.hh"
#include "driver/sim_runner.hh"
#include "sim/checkpoint.hh"
#include "sim/sample_schedule.hh"
#include "test_helpers.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

using test::testProgram;

/** Bitwise equality of two sampled results' deterministic fields. */
void
expectSampledIdentical(const SampledRunResult &a, const SampledRunResult &b,
                       const std::string &what)
{
    EXPECT_EQ(a.windows, b.windows) << what;
    EXPECT_EQ(a.totalInsts, b.totalInsts) << what;
    EXPECT_EQ(a.halted, b.halted) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.insts, b.insts) << what;
    EXPECT_EQ(a.ipc, b.ipc) << what; // exact: same merge, same order
    EXPECT_TRUE(a.cpi == b.cpi) << what << " CPI stack";
    EXPECT_TRUE(a.funnel == b.funnel) << what << " funnel";
    EXPECT_EQ(a.ipcEst.n, b.ipcEst.n) << what;
    // NaN != NaN, so compare estimate doubles via bit-for-bit ==
    // only when defined; both sides must agree on definedness.
    EXPECT_EQ(std::isnan(a.ipcEst.mean), std::isnan(b.ipcEst.mean)) << what;
    if (!std::isnan(a.ipcEst.mean)) {
        EXPECT_EQ(a.ipcEst.mean, b.ipcEst.mean) << what;
    }
    EXPECT_EQ(std::isnan(a.ipcEst.ci95), std::isnan(b.ipcEst.ci95)) << what;
    if (!std::isnan(a.ipcEst.ci95)) {
        EXPECT_EQ(a.ipcEst.ci95, b.ipcEst.ci95) << what;
    }
    ASSERT_EQ(a.windowResults.size(), b.windowResults.size()) << what;
    for (std::size_t w = 0; w < a.windowResults.size(); ++w) {
        EXPECT_EQ(a.windowResults[w].cycles, b.windowResults[w].cycles)
            << what << " window " << w;
        EXPECT_EQ(a.windowResults[w].insts, b.windowResults[w].insts)
            << what << " window " << w;
    }
}

/** Equality of two window runs' deterministic fields. */
void
expectRunIdentical(const RunResult &a, const RunResult &b,
                   const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.insts, b.insts) << what;
    EXPECT_EQ(a.archRegs, b.archRegs) << what;
    EXPECT_TRUE(a.cpi == b.cpi) << what << " CPI stack";
    EXPECT_TRUE(a.funnel == b.funnel) << what << " funnel";
    EXPECT_EQ(a.stats.scalars(), b.stats.scalars()) << what << " stats";
}

/**
 * Four design points sampling one program: the baseline, RGID and RI
 * share a core configuration; the bimodal-predictor point does not,
 * so it must never start from their warm state.
 */
std::vector<BatchJob>
designPoints(const isa::Program &prog)
{
    SimConfig bimodal = specConfig({.streams = 4, .entries = 64});
    bimodal.core.predictor = BranchPredictorKind::Bimodal;
    std::vector<BatchJob> jobs = {
        {"none", &prog, specConfig({.scheme = "none"}), {}},
        {"rgid", &prog, specConfig({.streams = 4, .entries = 64}), {}},
        {"regint", &prog,
         specConfig({.scheme = "regint", .sets = 64, .ways = 4}), {}},
        {"bimodal", &prog, bimodal, {}},
    };
    for (BatchJob &j : jobs) {
        j.config.samplePeriod = 4000;
        j.config.sampleWindow = 500;
    }
    return jobs;
}

/** Window @p w's config as runSampled builds it for @p job. */
SimConfig
windowConfig(const BatchJob &job, const SampleSchedule &sched,
             std::uint64_t w)
{
    SimConfig cfg = job.config;
    cfg.samplePeriod = 0;
    cfg.sampleWindow = 0;
    const std::uint64_t offset = w * job.config.samplePeriod;
    cfg.maxInsts = std::min(job.config.sampleWindow,
                            sched.totalInsts - offset);
    if (w > 0) {
        cfg.fastForwardInsts = offset;
        cfg.checkpoint = &sched.checkpoints[w - 1];
        cfg.warmBpu = true;
        cfg.warmCaches = true;
    }
    return cfg;
}

} // namespace

TEST(Sampling, TCritical95MatchesTheStandardTable)
{
    EXPECT_TRUE(std::isnan(tCritical95(0)));
    EXPECT_DOUBLE_EQ(tCritical95(1), 12.706);
    EXPECT_DOUBLE_EQ(tCritical95(5), 2.571);
    EXPECT_DOUBLE_EQ(tCritical95(30), 2.042);
    EXPECT_DOUBLE_EQ(tCritical95(31), 2.021);
    EXPECT_DOUBLE_EQ(tCritical95(40), 2.021);
    EXPECT_DOUBLE_EQ(tCritical95(60), 2.000);
    EXPECT_DOUBLE_EQ(tCritical95(120), 1.980);
    EXPECT_DOUBLE_EQ(tCritical95(121), 1.960);
    EXPECT_DOUBLE_EQ(tCritical95(100000), 1.960);
}

TEST(Sampling, EstimateFromEmptySingleAndKnownSamples)
{
    const SampleEstimate none = estimateFrom({});
    EXPECT_EQ(none.n, 0u);
    EXPECT_TRUE(std::isnan(none.mean));
    EXPECT_TRUE(std::isnan(none.stdErr));
    EXPECT_TRUE(std::isnan(none.ci95));
    EXPECT_FALSE(none.covers(0.0)) << "undefined interval covers nothing";

    const SampleEstimate one = estimateFrom({2.0});
    EXPECT_EQ(one.n, 1u);
    EXPECT_DOUBLE_EQ(one.mean, 2.0);
    EXPECT_TRUE(std::isnan(one.stdErr)) << "n = 1 has no spread estimate";
    EXPECT_TRUE(std::isnan(one.ci95));
    EXPECT_FALSE(one.covers(2.0));

    // {1, 2, 3, 4}: mean 2.5, sample variance 5/3, stderr
    // sqrt(5/12), CI = t(3) * stderr with t(3) = 3.182.
    const SampleEstimate four = estimateFrom({1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(four.n, 4u);
    EXPECT_DOUBLE_EQ(four.mean, 2.5);
    EXPECT_NEAR(four.stdErr, std::sqrt(5.0 / 12.0), 1e-12);
    EXPECT_NEAR(four.ci95, 3.182 * std::sqrt(5.0 / 12.0), 1e-12);
    EXPECT_TRUE(four.covers(2.5));
    EXPECT_TRUE(four.covers(2.5 + four.ci95));
    EXPECT_FALSE(four.covers(10.0));
}

TEST(Sampling, ScheduleCheckpointsEveryPeriodUntilHalt)
{
    const isa::Program prog = testProgram();
    const std::uint64_t period = 5000;
    const SampleSchedule sched = buildSampleSchedule(prog, period);

    EXPECT_TRUE(sched.halted);
    EXPECT_GT(sched.totalInsts, period) << "workload too short for the test";
    // Boundaries strictly inside the run get a checkpoint; the halt
    // boundary (and anything past it) must not.
    const std::uint64_t expected = (sched.totalInsts - 1) / period;
    ASSERT_EQ(sched.checkpoints.size(), expected);
    EXPECT_EQ(sched.windows(), expected + 1);
    for (std::size_t i = 0; i < sched.checkpoints.size(); ++i) {
        const Checkpoint &ck = sched.checkpoints[i];
        EXPECT_EQ(ck.ffInsts, (i + 1) * period);
        EXPECT_EQ(ck.instret, ck.ffInsts) << "boundary inside the run";
        EXPECT_EQ(ck.programHash, prog.hash());
        EXPECT_FALSE(ck.halted);
        EXPECT_GT(ck.branchHist.size(), 0u);
        EXPECT_GT(ck.memHist.size(), 0u)
            << "scan must record data accesses for cache warming";
    }
}

TEST(Sampling, ScheduleBoundaryEdgeCases)
{
    const isa::Program prog = testProgram();

    // A bound of exactly two periods: only the interior boundary (one
    // period in) starts a window; the boundary at the bound itself
    // must not (a zero-length window would observe nothing).
    const SampleSchedule two = buildSampleSchedule(
        prog, 4000, FuncTier::Fast, "", /*maxInsts=*/8000);
    EXPECT_EQ(two.totalInsts, 8000u);
    EXPECT_FALSE(two.halted);
    ASSERT_EQ(two.checkpoints.size(), 1u);
    EXPECT_EQ(two.windows(), 2u);

    // A fractional trailing period keeps its window.
    const SampleSchedule frac = buildSampleSchedule(
        prog, 3000, FuncTier::Fast, "", /*maxInsts=*/7000);
    EXPECT_EQ(frac.totalInsts, 7000u);
    ASSERT_EQ(frac.checkpoints.size(), 2u);
    EXPECT_EQ(frac.windows(), 3u);

    // A period longer than the whole program: one reset window only.
    const SampleSchedule big =
        buildSampleSchedule(prog, 1000000000ull);
    EXPECT_TRUE(big.halted);
    EXPECT_EQ(big.checkpoints.size(), 0u);
    EXPECT_EQ(big.windows(), 1u);

    EXPECT_THROW(buildSampleSchedule(prog, 0), std::invalid_argument);
}

TEST(Sampling, ScheduleStoreRoundTripIsByteDeterministic)
{
    const isa::Program prog = testProgram();
    const std::string dir = testing::TempDir() + "mssr_sample_store_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const SampleSchedule cold =
        buildSampleSchedule(prog, 5000, FuncTier::Fast, dir);
    EXPECT_EQ(cold.diskHits, 0u);
    const SampleSchedule warm =
        buildSampleSchedule(prog, 5000, FuncTier::Fast, dir);
    EXPECT_EQ(warm.diskHits, cold.checkpoints.size());
    // Cross-tier: an interpreter scan consuming the fast-tier store
    // must land on the same schedule (the tiers are cosim-identical).
    const SampleSchedule interp =
        buildSampleSchedule(prog, 5000, FuncTier::Interpreter, dir);
    EXPECT_EQ(interp.diskHits, cold.checkpoints.size());

    ASSERT_EQ(warm.checkpoints.size(), cold.checkpoints.size());
    ASSERT_EQ(interp.checkpoints.size(), cold.checkpoints.size());
    for (std::size_t i = 0; i < cold.checkpoints.size(); ++i) {
        EXPECT_TRUE(warm.checkpoints[i] == cold.checkpoints[i])
            << "store hit diverged at boundary " << i;
        EXPECT_TRUE(interp.checkpoints[i] == cold.checkpoints[i])
            << "cross-tier store hit diverged at boundary " << i;
    }
    std::filesystem::remove_all(dir);
}

TEST(Sampling, SampledScanCountsStoreMissesAndHits)
{
    // The scan saves and loads through the same store paths as the
    // shared warm-up, so its checkpoints count as store misses when
    // cold and hits when warm, bytes included.
    const isa::Program prog = testProgram();
    const std::string dir = testing::TempDir() + "mssr_sample_store_metrics";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.samplePeriod = 4000;
    cfg.sampleWindow = 500;
    const std::vector<BatchJob> jobs{{"s", &prog, cfg, {}}};
    BatchRunner runner(1);
    runner.setCheckpointDir(dir);

    registerCheckpointStoreMetrics();
    MetricsRegistry &reg = MetricsRegistry::global();
    const auto counters = [&] {
        return std::array<std::uint64_t, 4>{
            reg.counter("mssr_ckpt_store_misses_total", "").value(),
            reg.counter("mssr_ckpt_store_bytes_written_total", "").value(),
            reg.counter("mssr_ckpt_store_hits_total", "").value(),
            reg.counter("mssr_ckpt_store_bytes_read_total", "").value()};
    };
    const auto before = counters();
    const std::uint64_t windows = runner.runSampled(jobs)[0].windows;
    ASSERT_GE(windows, 2u);
    const auto cold = counters();
    EXPECT_EQ(cold[0] - before[0], windows - 1) << "cold misses";
    EXPECT_GT(cold[1], before[1]) << "cold bytes written";
    EXPECT_EQ(cold[2], before[2]) << "cold hits";
    EXPECT_EQ(cold[3], before[3]) << "cold bytes read";

    EXPECT_EQ(runner.runSampled(jobs)[0].scanDiskHits, windows - 1);
    const auto warm = counters();
    EXPECT_EQ(warm[0], cold[0]) << "warm misses";
    EXPECT_EQ(warm[1], cold[1]) << "warm bytes written";
    EXPECT_EQ(warm[2] - cold[2], windows - 1) << "warm hits";
    EXPECT_EQ(warm[3] - cold[3], cold[1] - before[1])
        << "warm bytes read equal the cold bytes written";
    std::filesystem::remove_all(dir);
}

TEST(Sampling, MemHistoryRingKeepsTheNewestAccessesInOrder)
{
    MemHistory h(4);
    for (Addr a = 1; a <= 6; ++a)
        h.note(a * 64, a % 2 == 0);
    EXPECT_EQ(h.size(), 4u);
    const std::vector<MemAccess> recs = h.inOrder();
    ASSERT_EQ(recs.size(), 4u);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const Addr expected = (i + 3) * 64; // 3, 4, 5, 6
        EXPECT_EQ(recs[i].addr, expected);
        EXPECT_EQ(recs[i].isStore, (i + 3) % 2 == 0);
    }
}

TEST(Sampling, CheckpointMemHistoryRoundTripsThroughTheFile)
{
    const isa::Program prog = testProgram();
    const Checkpoint ckpt = computeCheckpoint(prog, 4000);
    EXPECT_GT(ckpt.memHist.size(), 0u);
    EXPECT_GT(ckpt.branchHist.size(), 0u);

    const std::string path = testing::TempDir() +
                             checkpointFileName(prog.hash(), 4000);
    writeCheckpoint(path, ckpt);
    const Checkpoint back = readCheckpoint(path);
    std::filesystem::remove(path);
    EXPECT_TRUE(back == ckpt) << "v2 MEMH section did not round-trip";
    ASSERT_EQ(back.memHist.size(), ckpt.memHist.size());
    EXPECT_EQ(back.producerTier, ckpt.producerTier);
}

TEST(Sampling, ProducerTierIsRecordedButArchitecturallyInvisible)
{
    const isa::Program prog = testProgram();
    const Checkpoint fast =
        computeCheckpoint(prog, 4000, FuncTier::Fast);
    const Checkpoint interp =
        computeCheckpoint(prog, 4000, FuncTier::Interpreter);
    EXPECT_EQ(fast.producerTier, FuncTier::Fast);
    EXPECT_EQ(interp.producerTier, FuncTier::Interpreter);
    // Equality deliberately ignores provenance: the tiers are
    // bit-identical, so either store entry serves either consumer.
    EXPECT_TRUE(fast == interp);
    EXPECT_EQ(fast.memHist.size(), interp.memHist.size());
}

TEST(Sampling, WarmCachesReplayChangesTimingNotArchitecture)
{
    const isa::Program prog = testProgram();
    const Checkpoint ck = computeCheckpoint(prog, 4000);
    ASSERT_GT(ck.memHist.size(), 0u);

    SimConfig cold = specConfig(
        {.streams = 4, .entries = 64, .maxInsts = 1500});
    cold.fastForwardInsts = 4000;
    cold.checkpoint = &ck;
    cold.warmBpu = true;
    const RunResult coldR = runSim(prog, cold);

    SimConfig warm = cold;
    warm.warmCaches = true;
    const RunResult warmR = runSim(prog, warm);

    EXPECT_EQ(warmR.insts, coldR.insts) << "warming must not change commits";
    EXPECT_EQ(warmR.archRegs, coldR.archRegs)
        << "warming must not change architectural state";
    EXPECT_LT(warmR.cycles, coldR.cycles)
        << "a warmed window must run faster than a cold-cache one";

    // Determinism: the same warmed config twice is bit-identical.
    const RunResult again = runSim(prog, warm);
    EXPECT_EQ(again.cycles, warmR.cycles);
    EXPECT_TRUE(again.cpi == warmR.cpi);
}

TEST(Sampling, SampledRunIsByteIdenticalAcrossWorkerCounts)
{
    const isa::Program prog = testProgram();
    std::vector<BatchJob> jobs;
    for (const unsigned streams : {2u, 4u}) {
        SimConfig cfg = specConfig({.streams = streams, .entries = 64});
        cfg.samplePeriod = 4000;
        cfg.sampleWindow = 500;
        jobs.push_back({"s" + std::to_string(streams), &prog, cfg, {}});
    }

    const std::vector<SampledRunResult> seq =
        BatchRunner(1).runSampled(jobs);
    const std::vector<SampledRunResult> par =
        BatchRunner(4).runSampled(jobs);
    ASSERT_EQ(seq.size(), jobs.size());
    ASSERT_EQ(par.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectSampledIdentical(seq[i], par[i],
                               jobs[i].name + " 1 vs 4 workers");
}

TEST(Sampling, SampledMergeInvariantsHold)
{
    const isa::Program prog = testProgram();
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.samplePeriod = 4000;
    cfg.sampleWindow = 500;
    const SampledRunResult r =
        BatchRunner(2).runSampled({{"bfs", &prog, cfg, {}}}).at(0);

    EXPECT_TRUE(r.halted);
    EXPECT_GT(r.windows, 2u);
    ASSERT_EQ(r.windowResults.size(), r.windows);
    ASSERT_EQ(r.windowOffsets.size(), r.windows);

    Cycle cycles = 0;
    std::uint64_t insts = 0;
    for (std::uint64_t w = 0; w < r.windows; ++w) {
        EXPECT_EQ(r.windowOffsets[w], w * cfg.samplePeriod);
        EXPECT_LE(r.windowResults[w].insts, cfg.sampleWindow);
        cycles += r.windowResults[w].cycles;
        insts += r.windowResults[w].insts;
    }
    EXPECT_EQ(r.cycles, cycles) << "pooled cycles must sum the windows";
    EXPECT_EQ(r.insts, insts) << "pooled insts must sum the windows";
    EXPECT_LE(r.insts, r.totalInsts);
    EXPECT_DOUBLE_EQ(r.ipc, static_cast<double>(insts) /
                                static_cast<double>(cycles));
    EXPECT_EQ(r.ipcEst.n, r.windows)
        << "every window observes an IPC sample";
    // The pooled CPI stack keeps the accounting identity.
    EXPECT_EQ(r.cpi.total(),
              static_cast<std::uint64_t>(r.cycles) * r.dispatchWidth);
}

TEST(Sampling, WindowsStartFromTheirOwnDesignPointsWarmState)
{
    const isa::Program prog = testProgram();
    const std::vector<BatchJob> jobs = designPoints(prog);
    const SampleSchedule sched = buildSampleSchedule(prog, 4000);
    ASSERT_GT(sched.windows(), 2u);

    // Each window on its own: runSim builds its warm state itself.
    std::vector<std::vector<RunResult>> alone(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        for (std::uint64_t w = 0; w < sched.windows(); ++w)
            alone[j].push_back(
                runSim(prog, windowConfig(jobs[j], sched, w)));

    // Started from the TAGE-SC-L points' state, the bimodal core runs
    // other windows, so a state shared across cores would show.
    std::uint64_t misshared = 0;
    for (std::uint64_t w = 1; w < sched.windows(); ++w) {
        const SimConfig tage = windowConfig(jobs[1], sched, w);
        const RunResult r =
            runSim(prog, windowConfig(jobs[3], sched, w), nullptr, {},
                   [&] { return WarmState(tage, prog, tage.checkpoint); });
        misshared += r.stats.scalars() != alone[3][w].stats.scalars();
    }
    EXPECT_GT(misshared, 0u);

    for (const unsigned workers : {1u, 4u}) {
        const std::vector<SampledRunResult> got =
            BatchRunner(workers).runSampled(jobs);
        ASSERT_EQ(got.size(), jobs.size());
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            ASSERT_EQ(got[j].windowResults.size(), sched.windows());
            for (std::uint64_t w = 0; w < sched.windows(); ++w)
                expectRunIdentical(got[j].windowResults[w], alone[j][w],
                                   jobs[j].name + " window " +
                                       std::to_string(w) + " at " +
                                       std::to_string(workers) +
                                       " worker(s)");
        }
    }
}

TEST(Sampling, CompletionHookReportsWindowsJobMajor)
{
    // The windows run window-major, but the hook numbers them job by
    // job: index k is job j's window w for k = (windows before job j)
    // + w. The per-job hook reports each job once, after all its
    // windows, with the merge runSampled returns -- whichever worker
    // lands its last window.
    const isa::Program prog = testProgram();
    const std::vector<BatchJob> jobs = designPoints(prog);
    for (const unsigned workers : {1u, 4u}) {
        BatchRunner runner(workers);
        std::mutex mutex;
        std::map<std::size_t, RunResult> reported;
        std::map<std::size_t, SampledRunResult> jobsReported;
        std::map<std::size_t, std::set<std::size_t>> windowsBefore;
        runner.setJobDone([&](std::size_t k, const RunResult &r) {
            std::lock_guard<std::mutex> lock(mutex);
            EXPECT_TRUE(reported.emplace(k, r).second)
                << "window " << k << " reported twice";
        });
        runner.setSampledJobDone(
            [&](std::size_t j, const SampledRunResult &r) {
                std::lock_guard<std::mutex> lock(mutex);
                EXPECT_TRUE(jobsReported.emplace(j, r).second)
                    << "job " << j << " reported twice";
                for (const auto &[k, wr] : reported)
                    windowsBefore[j].insert(k);
            });
        const std::vector<SampledRunResult> got = runner.runSampled(jobs);
        ASSERT_EQ(jobsReported.size(), got.size());
        std::size_t k = 0;
        for (std::size_t j = 0; j < got.size(); ++j) {
            const std::string at = " at " + std::to_string(workers) +
                                   " worker(s)";
            expectSampledIdentical(jobsReported.at(j), got[j],
                                   jobs[j].name + at);
            for (std::size_t w = 0; w < got[j].windowResults.size();
                 ++w, ++k) {
                ASSERT_TRUE(reported.count(k)) << "window " << k;
                expectRunIdentical(reported.at(k), got[j].windowResults[w],
                                   "hook index " + std::to_string(k) + at);
                EXPECT_TRUE(windowsBefore[j].count(k))
                    << jobs[j].name << " reported before window " << w
                    << at;
            }
        }
        EXPECT_EQ(reported.size(), k);
    }
}

TEST(Sampling, DrainedJobIsNeitherMergedNorReported)
{
    // A 200-window job drained after its first window: the skipped
    // windows are not merged as empty results, the job is not
    // reported, and it keeps a default result, like a job run()
    // skips.
    workloads::WorkloadScale scale;
    scale.graphScale = 6;
    scale.iterations = 20000;
    const isa::Program prog =
        workloads::buildWorkload("nested-mispred", scale);
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.samplePeriod = 10000;
    cfg.sampleWindow = 2000;
    ASSERT_EQ(buildSampleSchedule(prog, cfg.samplePeriod).windows(), 200u);

    std::atomic<bool> stop{false};
    BatchRunner runner(1);
    runner.setStopFlag(&stop);
    std::size_t windowsRun = 0;
    runner.setJobDone([&](std::size_t, const RunResult &) {
        ++windowsRun;
        stop = true;
    });
    std::size_t reported = 0;
    runner.setSampledJobDone(
        [&](std::size_t, const SampledRunResult &) { ++reported; });
    const SampledRunResult r =
        runner.runSampled({{"drained", &prog, cfg, {}}}).at(0);
    EXPECT_EQ(windowsRun, 1u);
    EXPECT_EQ(reported, 0u);
    EXPECT_EQ(r.windows, 0u);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_TRUE(r.windowResults.empty());

    // Raised before the call, the flag stops the scans too.
    EXPECT_EQ(runner.runSampled({{"drained", &prog, cfg, {}}}).at(0).windows,
              0u);
    EXPECT_EQ(windowsRun, 1u);
}

TEST(Sampling, SampledRunRejectsUnsupportedConfigs)
{
    const isa::Program prog = testProgram();
    auto sampled = [&](auto mutate) {
        SimConfig cfg = specConfig({.streams = 4, .entries = 64});
        cfg.samplePeriod = 4000;
        cfg.sampleWindow = 500;
        mutate(cfg);
        return BatchRunner(1).runSampled({{"bad", &prog, cfg, {}}});
    };
    EXPECT_THROW(sampled([](SimConfig &c) { c.sampleWindow = 0; }),
                 std::invalid_argument);
    EXPECT_THROW(sampled([](SimConfig &c) { c.sampleWindow = 4001; }),
                 std::invalid_argument);
    EXPECT_THROW(sampled([](SimConfig &c) { c.samplePeriod = 0; }),
                 std::invalid_argument);
    EXPECT_THROW(sampled([](SimConfig &c) { c.fastForwardInsts = 100; }),
                 std::invalid_argument);
    EXPECT_THROW(sampled([](SimConfig &c) { c.profiling = true; }),
                 std::invalid_argument);
    // Every window copies the config, so a recorder would take every
    // window's events.
    PipeView view;
    EXPECT_THROW(sampled([&](SimConfig &c) { c.pipeview = &view; }),
                 std::invalid_argument);
}
