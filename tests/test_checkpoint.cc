/**
 * Fast-forward / checkpoint engine: a detailed run whose functional
 * prefix was computed live, shared across a batch, or reloaded from an
 * mssr-ckpt-v2 file must produce byte-identical results -- cycles,
 * stats, CPI stack, funnel, profile and architectural
 * registers -- at any worker count. Also covers the warm-BPU replay
 * path, cache-key validation and the BatchRunner's shared warm-up
 * attribution.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "driver/batch_runner.hh"
#include "driver/sim_runner.hh"
#include "sim/checkpoint.hh"
#include "test_helpers.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

constexpr std::uint64_t FfInsts = 4000;
constexpr std::uint64_t DetailedInsts = 6000;

using test::testProgram;

/** Every deterministic field must match bit for bit. */
void
expectIdentical(const RunResult &a, const RunResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.insts, b.insts) << what;
    EXPECT_EQ(a.ffInsts, b.ffInsts) << what;
    EXPECT_EQ(a.halted, b.halted) << what;
    EXPECT_EQ(a.archRegs, b.archRegs) << what;
    EXPECT_TRUE(a.cpi == b.cpi) << what << " CPI stack";
    EXPECT_TRUE(a.funnel == b.funnel) << what << " reuse funnel";
    for (const auto &[key, value] : a.stats.scalars())
        EXPECT_EQ(value, b.stats.get(key)) << what << " stat " << key;
    {
        std::ostringstream pa, pb;
        writeJson(pa, a.profile);
        writeJson(pb, b.profile);
        EXPECT_EQ(pa.str(), pb.str()) << what << " profile";
    }
}

SimConfig
ffConfig(bool warm = false)
{
    SimConfig cfg = rgidConfig(4, 64, DetailedInsts);
    cfg.fastForwardInsts = FfInsts;
    cfg.warmBpu = warm;
    cfg.profiling = true;
    return cfg;
}

} // namespace

TEST(Checkpoint, LiveFfVsFileRestoredAreByteIdentical)
{
    const isa::Program prog = testProgram();

    // Live in-process fast-forward (no checkpoint involved).
    const RunResult live = runSim(prog, ffConfig());
    EXPECT_EQ(live.ffInsts, FfInsts);
    EXPECT_FALSE(live.ckptHit);
    EXPECT_GT(live.insts, 1000u); // a real detailed region followed

    // Same region through a checkpoint file round-trip.
    const std::string path = testing::TempDir() +
                             checkpointFileName(prog.hash(), FfInsts);
    writeCheckpoint(path, computeCheckpoint(prog, FfInsts));
    const Checkpoint fromDisk = readCheckpoint(path);
    std::filesystem::remove(path);
    SimConfig cfg = ffConfig();
    cfg.checkpoint = &fromDisk;
    const RunResult restored = runSim(prog, cfg);
    EXPECT_TRUE(restored.ckptHit);

    expectIdentical(live, restored, "live vs file-restored");
}

TEST(Checkpoint, WarmBpuIsDeterministicAndIdenticalAcrossPaths)
{
    const isa::Program prog = testProgram();
    const RunResult live = runSim(prog, ffConfig(/*warm=*/true));

    const Checkpoint ck = computeCheckpoint(prog, FfInsts);
    SimConfig cfg = ffConfig(/*warm=*/true);
    cfg.checkpoint = &ck;
    const RunResult shared = runSim(prog, cfg);
    expectIdentical(live, shared, "warm live vs warm shared");

    // The interpreter tier computes the same prefix, so the warm run
    // it feeds is identical to the fast-tier one.
    SimConfig interp = ffConfig(/*warm=*/true);
    interp.funcTier = FuncTier::Interpreter;
    expectIdentical(live, runSim(prog, interp), "warm fast vs warm interp");

    // Warming must actually replay history: the prefix records
    // branches, so the warm run differs from the cold one somewhere
    // (same instructions, different speculation).
    const RunResult cold = runSim(prog, ffConfig(/*warm=*/false));
    EXPECT_EQ(cold.insts, live.insts);
    EXPECT_NE(cold.cycles, live.cycles)
        << "warm-BPU replay had no effect at all";
}

TEST(Checkpoint, BatchSharedWarmupIdenticalAcrossWorkerCounts)
{
    // The acceptance bar: jobs sharing a (program, K) prefix through
    // the BatchRunner cache are byte-identical to standalone runs, at
    // 1 worker and at 4 (MSSR_JOBS equivalents).
    const isa::Program prog = testProgram();
    std::vector<BatchJob> jobs;
    for (const unsigned streams : {1u, 2u, 4u}) {
        SimConfig cfg = rgidConfig(streams, 64, DetailedInsts);
        cfg.fastForwardInsts = FfInsts;
        cfg.profiling = true;
        jobs.push_back({"s" + std::to_string(streams), &prog, cfg, {}});
    }

    const std::vector<RunResult> seq = BatchRunner(1).run(jobs);
    const std::vector<RunResult> par = BatchRunner(4).run(jobs);
    ASSERT_EQ(seq.size(), jobs.size());
    ASSERT_EQ(par.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectIdentical(seq[i], par[i], jobs[i].name + " 1 vs 4 workers");
        // ...and identical to a standalone run of the same config.
        const RunResult solo = runSim(prog, jobs[i].config);
        expectIdentical(seq[i], solo, jobs[i].name + " batch vs solo");
    }

    // Attribution: the first job of the group paid for the prefix, the
    // rest are in-memory hits.
    EXPECT_FALSE(seq[0].ckptHit);
    EXPECT_TRUE(seq[1].ckptHit);
    EXPECT_TRUE(seq[2].ckptHit);
}

TEST(Checkpoint, BatchDiskCacheHitsOnSecondRun)
{
    const isa::Program prog = testProgram();
    const std::string dir =
        testing::TempDir() + "mssr_ckpt_cache_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    std::vector<BatchJob> jobs{
        {"rgid", &prog, ffConfig(), {}},
    };
    BatchRunner runner(1);
    runner.setCheckpointDir(dir);

    const std::vector<RunResult> miss = runner.run(jobs);
    EXPECT_FALSE(miss[0].ckptHit);
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + checkpointFileName(prog.hash(), FfInsts)));

    const std::vector<RunResult> hit = runner.run(jobs);
    EXPECT_TRUE(hit[0].ckptHit);
    expectIdentical(miss[0], hit[0], "disk miss vs disk hit");
    std::filesystem::remove_all(dir);
}

TEST(Checkpoint, MismatchedCheckpointIsRejected)
{
    const isa::Program prog = testProgram("bfs");
    const isa::Program other = testProgram("gobmk");
    const Checkpoint ck = computeCheckpoint(other, FfInsts);

    SimConfig cfg = ffConfig();
    cfg.checkpoint = &ck;
    EXPECT_THROW(runSim(prog, cfg), SerializeError) << "wrong program";

    const Checkpoint shortCk = computeCheckpoint(prog, FfInsts / 2);
    cfg.checkpoint = &shortCk;
    EXPECT_THROW(runSim(prog, cfg), SerializeError) << "wrong K";
}

TEST(Checkpoint, PrefixPlusDetailedMatchesUnforwardedArchitecture)
{
    // Architectural correctness: a fast-forwarded run that executes
    // the remainder to HALT must end with the same architectural
    // registers as a full detailed run from reset.
    const isa::Program prog = testProgram();
    const RunResult full = runSim(prog, rgidConfig(4, 64));
    SimConfig cfg = rgidConfig(4, 64);
    cfg.fastForwardInsts = FfInsts;
    const RunResult ff = runSim(prog, cfg);
    EXPECT_TRUE(ff.halted);
    EXPECT_EQ(ff.archRegs, full.archRegs);
    EXPECT_EQ(ff.ffInsts + ff.insts, full.insts)
        << "prefix + detailed commits != total program length";
}

TEST(Checkpoint, ProgramHashDiscriminatesAndIsStable)
{
    const isa::Program a1 = testProgram("bfs");
    const isa::Program a2 = testProgram("bfs");
    const isa::Program b = testProgram("gobmk");
    EXPECT_EQ(a1.hash(), a2.hash());
    EXPECT_NE(a1.hash(), b.hash());

    workloads::WorkloadScale scaled;
    scaled.graphScale = 7;
    scaled.iterations = 120;
    const isa::Program a3 = workloads::buildWorkload("bfs", scaled);
    EXPECT_NE(a1.hash(), a3.hash()) << "scale change must change the key";
}

TEST(Checkpoint, ProgramHashFollowsEveryChange)
{
    // hash() is remembered, so each change must make it hash the new
    // content: what a program built with that content, and never
    // hashed before, gives.
    const auto build = [](unsigned changes) {
        isa::Program p = testProgram("bfs");
        if (changes > 0)
            p.setEntry(p.entry() + InstBytes);
        if (changes > 1)
            p.initData64(p.dataBase(), {42});
        if (changes > 2)
            p.initBytes(p.dataBase() + 8, {7, 9});
        if (changes > 3)
            p.append(p.instAt(p.entry()));
        return p;
    };
    isa::Program p = build(0);
    std::uint64_t before = p.hash();
    for (unsigned changes = 1; changes <= 4; ++changes) {
        switch (changes) {
          case 1: p.setEntry(p.entry() + InstBytes); break;
          case 2: p.initData64(p.dataBase(), {42}); break;
          case 3: p.initBytes(p.dataBase() + 8, {7, 9}); break;
          default: p.append(p.instAt(p.entry())); break;
        }
        const std::uint64_t after = p.hash();
        EXPECT_NE(after, before) << "change " << changes;
        EXPECT_EQ(after, build(changes).hash()) << "change " << changes;
        before = after;
    }
    const isa::Program copy = p;
    EXPECT_EQ(copy.hash(), before) << "a copy keeps the content's hash";
}
