/**
 * Co-simulation property tests: the O3 core (with any squash-reuse
 * scheme) must produce exactly the functional emulator's architectural
 * registers and memory. This is the master correctness invariant of
 * squash reuse -- reusing wrong-path results must never change
 * architectural state.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "cosim_triage.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "isa/assembler.hh"
#include "sim/func_emu.hh"
#include "workloads/micro.hh"
#include "workloads/speclike.hh"

using namespace mssr;

namespace
{

/** Runs both models and asserts identical architectural results. */
void
expectCosimMatch(const isa::Program &prog, const SimConfig &cfg,
                 const std::string &what)
{
    Memory refMem;
    FuncEmu emu(prog, refMem);
    emu.run(5'000'000);
    ASSERT_TRUE(emu.halted()) << what << ": reference did not halt";

    SimConfig traced = cfg;
    CosimTriage triage(what, traced); // dumps last events on divergence
    Memory o3Mem;
    const RunResult r = runSim(prog, traced, &o3Mem);
    ASSERT_TRUE(r.halted) << what << ": O3 did not halt";
    EXPECT_EQ(r.insts, emu.instret()) << what << ": instruction count";
    for (unsigned reg = 0; reg < NumArchRegs; ++reg) {
        EXPECT_EQ(r.archRegs[reg], emu.reg(static_cast<ArchReg>(reg)))
            << what << ": arch reg " << isa::regName(
                   static_cast<ArchReg>(reg));
    }
    EXPECT_TRUE(o3Mem.equals(refMem)) << what << ": memory image differs";
}

/**
 * Random program generator: data-dependent branches, loads/stores to
 * a small arena, ALU chains -- all structured as a loop so wrong paths
 * reconverge and squash reuse gets exercised.
 */
isa::Program
randomProgram(std::uint64_t seed)
{
    Rng rng(seed);
    std::ostringstream os;
    const unsigned iters = 60 + rng.below(60);
    os << "    li s0, 0\n";
    os << "    li s1, " << iters << "\n";
    os << "    la s2, arena\n";
    os << "    li s3, 0\n";
    os << "outer:\n";
    // A hash so branch outcomes are data dependent.
    os << "    addi t0, s0, " << (1 + rng.below(1 << 20)) << "\n";
    os << "    slli t1, t0, 13\n    xor t0, t0, t1\n";
    os << "    srli t1, t0, 7\n    xor t0, t0, t1\n";
    const unsigned blocks = 2 + rng.below(4);
    for (unsigned b = 0; b < blocks; ++b) {
        const std::string skip = "skip" + std::to_string(b);
        switch (rng.below(5)) {
          case 0: // conditional ALU block
            os << "    andi t2, t0, " << (1 << rng.below(4)) << "\n";
            os << "    beqz t2, " << skip << "\n";
            os << "    addi s3, s3, " << rng.below(100) << "\n";
            os << "    xori s4, s4, " << rng.below(100) << "\n";
            os << skip << ":\n";
            os << "    add s5, s3, s4\n";
            break;
          case 1: // store then dependent load
            os << "    andi t2, t0, 56\n";
            os << "    add t3, s2, t2\n";
            os << "    sd s3, 0(t3)\n";
            os << "    ld s6, 0(t3)\n";
            break;
          case 2: // conditional store (memory on one path only)
            os << "    andi t2, t0, " << (1 << rng.below(4)) << "\n";
            os << "    bnez t2, " << skip << "\n";
            os << "    slli t3, s0, 3\n";
            os << "    andi t3, t3, 248\n";
            os << "    add t3, t3, s2\n";
            os << "    sd t0, 0(t3)\n";
            os << skip << ":\n";
            os << "    srli t4, t0, 3\n";
            os << "    andi t4, t4, 248\n";
            os << "    add t4, t4, s2\n";
            os << "    ld s7, 0(t4)\n";
            os << "    add s3, s3, s7\n";
            break;
          case 3: // mul/div latency
            os << "    ori t5, t0, 1\n";
            os << "    mul s8, s3, t5\n";
            os << "    div s9, s8, t5\n";
            break;
          default: // nested branches (multi-stream shapes)
            os << "    andi t2, t0, 1\n";
            os << "    beqz t2, " << skip << "a\n";
            os << "    andi t3, t0, 2\n";
            os << "    beqz t3, " << skip << "b\n";
            os << "    addi s10, s10, 1\n";
            os << skip << "b:\n";
            os << "    addi s11, s11, 2\n";
            os << skip << "a:\n";
            os << "    add s4, s10, s11\n";
            break;
        }
    }
    os << "    addi s0, s0, 1\n";
    os << "    blt s0, s1, outer\n";
    os << "    halt\n";

    isa::Program prog;
    prog.allocData("arena", 4096);
    isa::assemble(prog, os.str());
    return prog;
}

} // namespace

TEST(Cosim, MicrobenchBaseline)
{
    workloads::MicroParams params;
    params.iterations = 150;
    expectCosimMatch(workloads::makeNestedMispred(params),
                     specConfig({.scheme = "none"}),
                     "nested baseline");
    expectCosimMatch(workloads::makeLinearMispred(params),
                     specConfig({.scheme = "none"}),
                     "linear baseline");
}

TEST(Cosim, MicrobenchRgidReuse)
{
    workloads::MicroParams params;
    params.iterations = 150;
    expectCosimMatch(workloads::makeNestedMispred(params),
                     specConfig({.streams = 4, .entries = 64}),
                     "nested rgid");
    expectCosimMatch(workloads::makeLinearMispred(params),
                     specConfig({.streams = 4, .entries = 64}),
                     "linear rgid");
}

TEST(Cosim, MicrobenchRegisterIntegration)
{
    workloads::MicroParams params;
    params.iterations = 150;
    expectCosimMatch(workloads::makeNestedMispred(params),
                     specConfig({.scheme = "regint", .sets = 64, .ways = 4}),
                     "nested ri");
    expectCosimMatch(workloads::makeLinearMispred(params),
                     specConfig({.scheme = "regint", .sets = 64, .ways = 4}),
                     "linear ri");
}

TEST(Cosim, RandomProgramsBaseline)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        expectCosimMatch(randomProgram(seed), specConfig({.scheme = "none"}),
                         "random baseline seed " + std::to_string(seed));
}

TEST(Cosim, RandomProgramsRgid)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        expectCosimMatch(randomProgram(seed),
                         specConfig({.streams = 4, .entries = 64}),
                         "random rgid seed " + std::to_string(seed));
}

TEST(Cosim, RandomProgramsRegInt)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        expectCosimMatch(
            randomProgram(seed),
            specConfig({.scheme = "regint", .sets = 64, .ways = 4}),
            "random ri seed " + std::to_string(seed));
}

TEST(Cosim, XzLikeStressesLoadVerification)
{
    workloads::SpecParams params;
    params.iterations = 200;
    expectCosimMatch(workloads::makeXzLike(params),
                     specConfig({.streams = 4, .entries = 64}),
                     "xz rgid");
}
