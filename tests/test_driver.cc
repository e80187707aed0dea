#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/pipeview.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "isa/assembler.hh"

using namespace mssr;

TEST(Driver, ConvenienceConfigs)
{
    const SimConfig base = specConfig({.scheme = "none", .maxInsts = 123});
    EXPECT_EQ(base.reuseKind, ReuseKind::None);
    EXPECT_EQ(base.maxInsts, 123u);

    const SimConfig rgid = specConfig({.streams = 2, .entries = 128});
    EXPECT_EQ(rgid.reuseKind, ReuseKind::Rgid);
    EXPECT_EQ(rgid.reuse.numStreams, 2u);
    EXPECT_EQ(rgid.reuse.squashLogEntriesPerStream, 128u);
    EXPECT_EQ(rgid.reuse.wpbEntriesPerStream, 32u); // entries / 4

    const SimConfig ri = specConfig(
        {.scheme = "regint", .sets = 128, .ways = 2});
    EXPECT_EQ(ri.reuseKind, ReuseKind::RegInt);
    EXPECT_EQ(ri.regint.sets, 128u);
    EXPECT_EQ(ri.regint.ways, 2u);
}

TEST(Driver, ToStringNames)
{
    EXPECT_EQ(toString(ReuseKind::None), "none");
    EXPECT_EQ(toString(ReuseKind::Rgid), "rgid");
    EXPECT_EQ(toString(ReuseKind::RegInt), "regint");
    EXPECT_EQ(toString(BranchPredictorKind::TageScL), "tage-sc-l");
    EXPECT_EQ(toString(BranchPredictorKind::Gshare), "gshare");
    EXPECT_EQ(toString(BranchPredictorKind::Bimodal), "bimodal");
}

TEST(Driver, ResultHelpers)
{
    RunResult base, fast;
    base.cycles = 200;
    base.ipc = 1.0;
    fast.cycles = 100;
    fast.ipc = 2.0;
    EXPECT_DOUBLE_EQ(fast.speedupOver(base), 2.0);
    EXPECT_DOUBLE_EQ(fast.ipcImprovementOver(base), 1.0);

    // Degenerate inputs must poison the result visibly (NaN -> "n/a"),
    // not masquerade as a measured 0.0 speedup.
    RunResult zero;
    EXPECT_TRUE(std::isnan(zero.speedupOver(base)));
    EXPECT_TRUE(std::isnan(base.speedupOver(zero)));
    EXPECT_TRUE(std::isnan(fast.ipcImprovementOver(zero)));
    EXPECT_TRUE(std::isnan(zero.ipcImprovementOver(zero)));
}

TEST(Driver, InspectHookSeesFinishedCore)
{
    const isa::Program prog = isa::assembleProgram(R"(
        li t0, 5
        halt
    )");
    bool called = false;
    const SimConfig cfg = specConfig({.scheme = "none"});
    runSim(prog, cfg, nullptr, [&](const O3Cpu &cpu) {
        called = true;
        EXPECT_TRUE(cpu.halted());
        EXPECT_EQ(cpu.archReg(5), 5u);
    });
    EXPECT_TRUE(called);
}

TEST(Driver, PipelineTraceProducesEvents)
{
    const isa::Program prog = isa::assembleProgram(R"(
        li t0, 1
        addi t0, t0, 2
        halt
    )");
    PipeView tracer({.trace = true});
    SimConfig cfg = specConfig({.scheme = "none"});
    cfg.pipeview = &tracer;
    runSim(prog, cfg);

    bool sawFetch = false, sawRename = false, sawCommit = false;
    tracer.forEachTraceEvent([&](const ProbeEvent &e) {
        sawFetch |= e.kind == ProbeKind::Fetch;
        sawRename |= e.kind == ProbeKind::Rename;
        sawCommit |= e.kind == ProbeKind::Commit;
    });
    EXPECT_TRUE(sawFetch);
    EXPECT_TRUE(sawRename);
    EXPECT_TRUE(sawCommit);
    // Text rendering keeps the stage/seq/pc fields human-readable.
    std::ostringstream text;
    tracer.writeText(text);
    EXPECT_NE(text.str().find("fetch"), std::string::npos);
    EXPECT_NE(text.str().find("commit"), std::string::npos);
}

TEST(Driver, TraceShowsReuseAndSquash)
{
    // One hashed H2P branch loop: squashes and reuse appear in traces.
    const isa::Program prog = isa::assembleProgram(R"(
        li s0, 0
        li s1, 300
    loop:
        addi t0, s0, 999
        li t1, -0x61c8864680b583eb
        mul t0, t0, t1
        srli t1, t0, 31
        xor t0, t0, t1
        andi t1, t0, 1
        beqz t1, skip
        addi s2, s2, 1
    skip:
        addi s3, s3, 7
        xori s3, s3, 3
        addi s0, s0, 1
        blt s0, s1, loop
        halt
    )");
    PipeView tracer({.trace = true});
    SimConfig cfg = specConfig({.streams = 4, .entries = 64});
    cfg.pipeview = &tracer;
    const RunResult r = runSim(prog, cfg);

    bool sawSquash = false, sawReused = false, sawReuseTest = false;
    tracer.forEachTraceEvent([&](const ProbeEvent &e) {
        if (e.kind == ProbeKind::Squash) {
            sawSquash = true;
            EXPECT_NE(e.squash, SquashReason::None);
        }
        sawReuseTest |= e.kind == ProbeKind::ReuseTest;
        sawReused |= e.kind == ProbeKind::Rename &&
                     (e.reuse == ReuseOutcome::Reused ||
                      e.reuse == ReuseOutcome::ReusedNeedVerify);
    });
    EXPECT_TRUE(sawSquash);
    if (r.stats.get("reuse.success") > 0) {
        EXPECT_TRUE(sawReuseTest);
        EXPECT_TRUE(sawReused);
    }
}
