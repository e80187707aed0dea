/**
 * Fast functional tier co-simulation: FastEmu (the predecoded
 * basic-block dispatch cache) must be bit-identical to FuncEmu (the
 * reference step interpreter) on every observable -- architectural
 * registers, memory image, instret, PC, halt state, the recorded
 * branch history, fatal-on-wild-PC behaviour and checkpoint
 * save/restore -- across every workload, random branchy programs, and
 * arbitrary run() chunkings. The fast tier has no semantics of its
 * own; any divergence here is a bug in its predecode or dispatch.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "driver/sim_runner.hh"
#include "isa/assembler.hh"
#include "sim/checkpoint.hh"
#include "sim/fast_emu.hh"
#include "sim/func_emu.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

/** Small-but-real workload sizing so the full-suite sweep stays fast. */
workloads::WorkloadScale
testScale()
{
    workloads::WorkloadScale scale;
    scale.graphScale = 6;
    scale.iterations = 60;
    return scale;
}

/**
 * Runs @p prog on both tiers with identical budgets and (bounded)
 * branch recording, then compares every observable.
 */
void
cosim(const isa::Program &prog, const std::string &label,
      std::uint64_t maxInsts = 0)
{
    Memory refMem;
    FuncEmu ref(prog, refMem);
    BranchHistory refHist;
    ref.recordBranches(&refHist);
    const std::uint64_t refExecuted = ref.run(maxInsts);

    Memory fastMem;
    FastEmu fast(prog, fastMem);
    BranchHistory fastHist;
    fast.recordBranches(&fastHist);
    const std::uint64_t fastExecuted = fast.run(maxInsts);

    EXPECT_EQ(fastExecuted, refExecuted) << label;
    EXPECT_EQ(fast.instret(), ref.instret()) << label;
    EXPECT_EQ(fast.halted(), ref.halted()) << label;
    EXPECT_EQ(fast.pc(), ref.pc()) << label;
    const auto fastRegs = fast.regs();
    for (unsigned r = 0; r < NumArchRegs; ++r)
        ASSERT_EQ(fastRegs[r], ref.reg(static_cast<ArchReg>(r)))
            << label << " reg " << isa::regName(static_cast<ArchReg>(r));
    EXPECT_TRUE(fastMem.equals(refMem)) << label;
    const std::vector<BranchOutcome> a = fastHist.inOrder();
    const std::vector<BranchOutcome> b = refHist.inOrder();
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(a[i] == b[i]) << label << " control record " << i;
}

/**
 * Random branchy program (seeded): conditional stores, nested
 * branches, calls through JALR, divides, byte traffic -- the same
 * shape as the random-cosim generator, kept self-contained here.
 */
isa::Program
randomProgram(std::uint64_t seed)
{
    Rng rng(seed * 31 + 17);
    std::ostringstream os;
    const unsigned iters = 60 + rng.below(60);
    os << "    li s0, 0\n    li s1, " << iters << "\n";
    os << "    la s2, arena\n";
    os << "outer:\n";
    os << "    addi t0, s0, " << (1 + rng.below(1 << 16)) << "\n";
    os << "    li t1, -0x61c8864680b583eb\n    mul t0, t0, t1\n";
    os << "    srli t1, t0, 29\n    xor t0, t0, t1\n";
    const unsigned blocks = 3 + rng.below(5);
    for (unsigned b = 0; b < blocks; ++b) {
        const std::string l = "L" + std::to_string(b);
        switch (rng.below(6)) {
          case 0:
            os << "    andi t2, t0, " << (1u << rng.below(3)) << "\n"
               << "    beqz t2, " << l << "\n"
               << "    addi s3, s3, " << rng.below(64) << "\n"
               << l << ":\n"
               << "    xori s4, s4, " << rng.below(64) << "\n";
            break;
          case 1: // call through a hashed condition (JALR on the ret)
            os << "    andi t2, t0, 2\n"
               << "    bnez t2, " << l << "\n"
               << "    call helper" << (b % 2) << "\n"
               << l << ":\n";
            break;
          case 2: // conditional store + unconditional load
            os << "    andi t2, t0, 4\n"
               << "    beqz t2, " << l << "\n"
               << "    andi t3, t0, 120\n"
               << "    add t3, t3, s2\n"
               << "    sd s3, 0(t3)\n"
               << l << ":\n"
               << "    andi t4, t0, 248\n"
               << "    add t4, t4, s2\n"
               << "    ld s5, 0(t4)\n"
               << "    add s3, s3, s5\n";
            break;
          case 3: // division corner semantics
            os << "    ori t5, t0, 1\n"
               << "    div s7, s3, t5\n"
               << "    rem s8, s3, t5\n";
            break;
          case 4: // nested branches
            os << "    andi t2, t0, 1\n"
               << "    beqz t2, " << l << "a\n"
               << "    andi t3, t0, 8\n"
               << "    beqz t3, " << l << "b\n"
               << "    addi s9, s9, 1\n"
               << l << "b:\n"
               << "    addi s10, s10, 2\n"
               << l << "a:\n";
            break;
          default: // sub-word traffic
            os << "    andi t3, t0, 252\n"
               << "    add t3, t3, s2\n"
               << "    sb t0, 1(t3)\n"
               << "    sh t0, 2(t3)\n"
               << "    lbu s11, 0(t3)\n"
               << "    lh s6, 2(t3)\n";
            break;
        }
    }
    os << "    addi s0, s0, 1\n    blt s0, s1, outer\n    halt\n";
    os << "helper0:\n    addi a0, a0, 3\n    xori a0, a0, 9\n    ret\n";
    os << "helper1:\n    addi a1, a1, 5\n    ret\n";

    isa::Program prog;
    prog.allocData("arena", 512);
    isa::assemble(prog, os.str());
    return prog;
}

} // namespace

TEST(FastEmu, CosimEveryWorkloadToCompletion)
{
    const workloads::WorkloadScale scale = testScale();
    for (const std::string suite :
         {"spec2006", "spec2017", "gap", "micro"}) {
        for (const auto &w : workloads::suiteWorkloads(suite))
            cosim(workloads::buildWorkload(w.name, scale), w.name);
    }
}

TEST(FastEmu, CosimEveryWorkloadBounded)
{
    // A budget that stops mid-execution (and usually mid-block)
    // exercises the budget-limited inner loop and the final-PC
    // bookkeeping of a partial run.
    const workloads::WorkloadScale scale = testScale();
    for (const auto &w : workloads::suiteWorkloads("gap"))
        cosim(workloads::buildWorkload(w.name, scale), w.name, 12345);
}

class FastEmuRandom : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FastEmuRandom, CosimRandomProgram)
{
    const std::uint64_t seed = GetParam();
    cosim(randomProgram(seed), "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastEmuRandom,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(FastEmu, ChunkedRunMatchesStepInterpreter)
{
    // run() must be restartable at any instruction boundary: feeding
    // awkward chunk sizes (hitting mid-block stops) has to track the
    // reference interpreter stepping the same chunks.
    const isa::Program prog = randomProgram(99);
    Memory refMem, fastMem;
    FuncEmu ref(prog, refMem);
    FastEmu fast(prog, fastMem);
    const std::uint64_t chunks[] = {1, 3, 7, 1, 64, 5, 1000, 2, 9999};
    for (const std::uint64_t chunk : chunks) {
        const std::uint64_t a = fast.run(chunk);
        const std::uint64_t b = ref.run(chunk);
        ASSERT_EQ(a, b) << "chunk " << chunk;
        ASSERT_EQ(fast.pc(), ref.pc()) << "chunk " << chunk;
        ASSERT_EQ(fast.instret(), ref.instret()) << "chunk " << chunk;
        ASSERT_EQ(fast.halted(), ref.halted()) << "chunk " << chunk;
    }
    // Finish both and compare the full final state.
    fast.run(0);
    ref.run(0);
    EXPECT_TRUE(fast.halted());
    EXPECT_EQ(fast.instret(), ref.instret());
    const auto regs = fast.regs();
    for (unsigned r = 0; r < NumArchRegs; ++r)
        ASSERT_EQ(regs[r], ref.reg(static_cast<ArchReg>(r)));
    EXPECT_TRUE(fastMem.equals(refMem));
}

TEST(FastEmu, HaltSemanticsMatchInterpreter)
{
    // HALT counts toward instret and the PC parks on the HALT
    // instruction; further run() calls execute nothing.
    const isa::Program prog = isa::assembleProgram(R"(
        addi t0, t0, 1
        addi t0, t0, 2
        halt
    )");
    Memory refMem, fastMem;
    FuncEmu ref(prog, refMem);
    FastEmu fast(prog, fastMem);
    EXPECT_EQ(fast.run(0), ref.run(0));
    EXPECT_EQ(fast.instret(), 3u);
    EXPECT_EQ(fast.instret(), ref.instret());
    EXPECT_EQ(fast.pc(), ref.pc());
    EXPECT_TRUE(fast.halted());
    EXPECT_EQ(fast.run(100), 0u);
    EXPECT_EQ(fast.instret(), 3u);
}

TEST(FastEmu, JalrLinkWithRdEqualRs1MatchesInterpreter)
{
    // jalr rd==rs1 must read the jump base before writing the link
    // register -- the classic ordering hazard for a dispatch rewrite.
    const std::string src = R"(
        la t0, target
        jalr t0, 0(t0)
        halt
    target:
        addi t1, t0, 0
        halt
    )";
    const isa::Program prog = isa::assembleProgram(src);
    Memory refMem, fastMem;
    FuncEmu ref(prog, refMem);
    FastEmu fast(prog, fastMem);
    ref.run(0);
    fast.run(0);
    EXPECT_EQ(fast.pc(), ref.pc());
    EXPECT_EQ(fast.reg(5), ref.reg(5));  // t0: the link value
    EXPECT_EQ(fast.reg(6), ref.reg(6));  // t1
    EXPECT_EQ(fast.instret(), ref.instret());
}

TEST(FastEmu, WildPcFatalsLikeInterpreter)
{
    // Jumping outside the code image is a user error: both tiers
    // must raise SimFatal when the wild PC is actually executed, and
    // only then (a budget that ends exactly at the jump defers it).
    const isa::Program prog = isa::assembleProgram(R"(
        li t0, 0x900000
        jr t0
        halt
    )");
    {
        Memory mem;
        FastEmu fast(prog, mem);
        EXPECT_EQ(fast.run(2), 2u); // stops after the jump, no fatal
        EXPECT_THROW(fast.run(1), SimFatal);
    }
    {
        Memory mem;
        FuncEmu ref(prog, mem);
        EXPECT_EQ(ref.run(2), 2u);
        EXPECT_THROW(ref.run(1), SimFatal);
    }
}

TEST(FastEmu, CheckpointInteropWithInterpreter)
{
    // A checkpoint taken on one tier restores into the other and the
    // resumed run finishes bit-identically to an uninterrupted
    // reference run -- the property SimConfig::funcTier relies on.
    const isa::Program prog =
        workloads::buildWorkload("bfs", testScale());

    Memory refMem;
    FuncEmu ref(prog, refMem);
    ref.run(0);
    const std::uint64_t total = ref.instret();
    ASSERT_GT(total, 1000u);

    for (const std::uint64_t k : {total / 5, total / 2, total - 1}) {
        // Fast tier saves, interpreter restores and finishes.
        Memory fastMem;
        FastEmu fast(prog, fastMem);
        fast.run(k);
        Checkpoint ck;
        fast.saveState(ck);

        Memory resumeMem;
        FuncEmu resume(prog, resumeMem);
        resume.restoreState(ck);
        EXPECT_EQ(resume.instret(), k);
        EXPECT_EQ(resume.pc(), fast.pc());
        resume.run(0);
        EXPECT_EQ(resume.instret(), total) << "k=" << k;
        EXPECT_EQ(resume.pc(), ref.pc()) << "k=" << k;
        EXPECT_EQ(resume.regs(), ref.regs()) << "k=" << k;
        EXPECT_TRUE(resumeMem.equals(refMem)) << "k=" << k;

        // Interpreter saves, fast tier restores and finishes.
        Memory interpMem;
        FuncEmu interp(prog, interpMem);
        interp.run(k);
        Checkpoint ck2;
        interp.saveState(ck2);

        Memory fastResumeMem;
        FastEmu fastResume(prog, fastResumeMem);
        fastResume.restoreState(ck2);
        EXPECT_EQ(fastResume.instret(), k);
        fastResume.run(0);
        EXPECT_EQ(fastResume.instret(), total) << "k=" << k;
        EXPECT_EQ(fastResume.pc(), ref.pc()) << "k=" << k;
        const auto regs = fastResume.regs();
        for (unsigned r = 0; r < NumArchRegs; ++r)
            ASSERT_EQ(regs[r], ref.reg(static_cast<ArchReg>(r)))
                << "k=" << k;
        EXPECT_TRUE(fastResumeMem.equals(refMem)) << "k=" << k;
    }
}

TEST(FastEmu, ComputeCheckpointIsTierInvariant)
{
    // The driver-level guarantee behind SimConfig::funcTier: the produced
    // checkpoint -- registers, PC, instret, memory pages and the
    // bounded warm-up branch history -- is identical whichever tier
    // computed it.
    const workloads::WorkloadScale scale = testScale();
    for (const std::string name : {"bfs", "mcf", "nested-mispred"}) {
        const isa::Program prog = workloads::buildWorkload(name, scale);
        for (const std::uint64_t k : {std::uint64_t{1000}, std::uint64_t{30000}}) {
            const Checkpoint fast =
                computeCheckpoint(prog, k, FuncTier::Fast);
            const Checkpoint interp =
                computeCheckpoint(prog, k, FuncTier::Interpreter);
            EXPECT_TRUE(fast == interp) << name << " k=" << k;
        }
    }
}
