#include <gtest/gtest.h>

#include <optional>

#include "frontend/bpu_pipeline.hh"
#include "isa/assembler.hh"

using namespace mssr;

namespace
{

CoreConfig
bimodalCfg()
{
    CoreConfig cfg;
    cfg.predictor = BranchPredictorKind::Bimodal;
    return cfg;
}

} // namespace

TEST(BpuPipeline, BlockEndsAtFetchLimit)
{
    // 10 plain instructions: the first block must stop at 8 (32B).
    isa::Program prog = isa::assembleProgram(R"(
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        halt
    )");
    CoreConfig cfg = bimodalCfg();
    BpuPipeline bpu(cfg, prog);
    PredBlock b;
    bpu.formBlock(b);
    EXPECT_EQ(b.startPC, prog.codeBase());
    EXPECT_EQ(b.numInsts(), 8u);
    EXPECT_EQ(b.nextPC, prog.codeBase() + 8 * InstBytes);
    EXPECT_TRUE(b.branches.empty());
}

TEST(BpuPipeline, BlockEndsAtPredictedTakenJump)
{
    isa::Program prog = isa::assembleProgram(R"(
        nop
        j target
        nop
    target:
        halt
    )");
    CoreConfig cfg = bimodalCfg();
    BpuPipeline bpu(cfg, prog);
    PredBlock b;
    bpu.formBlock(b);
    EXPECT_EQ(b.numInsts(), 2u); // nop + j
    EXPECT_EQ(b.nextPC, prog.label("target"));
    ASSERT_EQ(b.branches.size(), 1u);
    EXPECT_TRUE(b.branches[0].predTaken);
}

TEST(BpuPipeline, NotTakenBranchDoesNotEndBlock)
{
    // Bimodal initializes weakly not-taken: the block runs through the
    // branch to the fetch limit.
    isa::Program prog = isa::assembleProgram(R"(
        beq t0, t1, far
        nop
        nop
        nop
        nop
        nop
        nop
        nop
    far:
        halt
    )");
    CoreConfig cfg = bimodalCfg();
    BpuPipeline bpu(cfg, prog);
    PredBlock b;
    bpu.formBlock(b);
    EXPECT_EQ(b.numInsts(), 8u);
    ASSERT_EQ(b.branches.size(), 1u);
    EXPECT_FALSE(b.branches[0].predTaken);
}

TEST(BpuPipeline, RedirectRetrainsAndRetargets)
{
    isa::Program prog = isa::assembleProgram(R"(
        beq t0, t1, far
        nop
    far:
        halt
    )");
    CoreConfig cfg = bimodalCfg();
    BpuPipeline bpu(cfg, prog);
    PredBlock b;
    bpu.formBlock(b);
    ASSERT_EQ(b.branches.size(), 1u);
    EXPECT_FALSE(b.branches[0].predTaken);
    // The branch was actually taken: redirect the frontend.
    const Addr target = prog.label("far");
    bpu.redirect(b.branches[0], true, target,
                 prog.instAt(b.branches[0].pc));
    EXPECT_EQ(bpu.fetchTarget(), target);
    // Train at commit a few times; prediction should flip to taken.
    for (int i = 0; i < 4; ++i)
        bpu.commitControl(b.branches[0].pc, prog.instAt(b.branches[0].pc),
                          true, target);
    bpu.redirectSimple(prog.codeBase());
    bpu.formBlock(b);
    ASSERT_EQ(b.branches.size(), 1u);
    EXPECT_TRUE(b.branches[0].predTaken);
    EXPECT_EQ(b.nextPC, target);
}

TEST(BpuPipeline, RasPredictsReturn)
{
    isa::Program prog = isa::assembleProgram(R"(
        call func
        nop
        halt
    func:
        ret
    )");
    CoreConfig cfg = bimodalCfg();
    BpuPipeline bpu(cfg, prog);
    PredBlock callBlock;
    bpu.formBlock(callBlock);
    EXPECT_EQ(callBlock.nextPC, prog.label("func"));
    PredBlock retBlock;
    bpu.formBlock(retBlock);
    ASSERT_EQ(retBlock.branches.size(), 1u);
    // The RAS supplies the return target: the instruction after call.
    EXPECT_EQ(retBlock.nextPC, prog.codeBase() + InstBytes);
}

TEST(BpuPipeline, JalrUsesBtbAfterTraining)
{
    isa::Program prog = isa::assembleProgram(R"(
        jalr t1, 0(t0)
        nop
    dest:
        halt
    )");
    CoreConfig cfg = bimodalCfg();
    BpuPipeline bpu(cfg, prog);
    // Untrained: falls through (no target knowledge).
    PredBlock b;
    bpu.formBlock(b);
    EXPECT_EQ(b.nextPC, prog.codeBase() + InstBytes);
    // Commit-train the BTB, re-form: target predicted.
    bpu.commitControl(prog.codeBase(), prog.instAt(prog.codeBase()), true,
                      prog.label("dest"));
    bpu.redirectSimple(prog.codeBase());
    bpu.formBlock(b);
    EXPECT_EQ(b.nextPC, prog.label("dest"));
}

TEST(BpuPipeline, WrongPathOutsideCodeSynthesizesFullBlocks)
{
    isa::Program prog = isa::assembleProgram("halt");
    CoreConfig cfg = bimodalCfg();
    BpuPipeline bpu(cfg, prog);
    bpu.redirectSimple(0xdead000);
    PredBlock b;
    bpu.formBlock(b);
    EXPECT_EQ(b.startPC, 0xdead000u);
    EXPECT_EQ(b.numInsts(), 8u);
    EXPECT_TRUE(b.branches.empty());
}

TEST(BpuPipeline, RejectsBlocksBeyondTheInlineBound)
{
    isa::Program prog = isa::assembleProgram("halt");
    CoreConfig cfg = bimodalCfg();
    cfg.fetchBlockBytes = (MaxBlockInsts + 1) * InstBytes;
    EXPECT_THROW(BpuPipeline bpu(cfg, prog), SimPanic);
    cfg.fetchBlockBytes = MaxBlockInsts * InstBytes;
    EXPECT_NO_THROW(BpuPipeline bpu(cfg, prog));
}

TEST(BpuPipeline, CopySharesNothingWithItsSource)
{
    // A copy starts with its source's training, then goes its own way:
    // retraining the source, or destroying it and the config it was
    // built from, leaves the copy forming the blocks a pipeline
    // trained like the source at the copy forms. (Each predictor's
    // clone is tested on its own in test_predictors.cc.)
    isa::Program prog = isa::assembleProgram(R"(
        beq t0, t1, far
        jalr t1, 0(t0)
    far:
        halt
    )");
    const Addr beq = prog.codeBase();
    const Addr jalr = beq + InstBytes;
    const auto train = [&](BpuPipeline &bpu, bool taken, Addr jalrTarget) {
        for (int i = 0; i < 8; ++i) {
            bpu.commitControl(beq, prog.instAt(beq), taken,
                              taken ? prog.label("far") : jalr);
            bpu.commitControl(jalr, prog.instAt(jalr), true, jalrTarget);
        }
    };
    const auto nextPC = [](BpuPipeline &bpu, Addr from) {
        bpu.redirectSimple(from);
        PredBlock b;
        bpu.formBlock(b);
        return b.nextPC;
    };
    BpuPipeline reference(bimodalCfg(), prog);
    train(reference, true, prog.label("far"));

    std::optional<BpuPipeline> source;
    {
        const CoreConfig scoped = bimodalCfg();
        source.emplace(scoped, prog);
    }
    train(*source, true, prog.label("far"));
    BpuPipeline copy(*source);
    train(*source, false, beq);
    // The retrained source now forms other blocks than the reference,
    // so a copy sharing its predictor or BTB would too.
    ASSERT_NE(nextPC(*source, beq), nextPC(reference, beq));
    ASSERT_NE(nextPC(*source, jalr), nextPC(reference, jalr));
    source.reset();
    EXPECT_EQ(nextPC(copy, beq), nextPC(reference, beq));
    EXPECT_EQ(nextPC(copy, jalr), nextPC(reference, jalr));
}
