/**
 * Quickstart: assemble a small program with a hard-to-predict branch,
 * run it on the baseline core and on a core with Multi-Stream Squash
 * Reuse, and print the key statistics.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "isa/assembler.hh"

using namespace mssr;

int
main()
{
    // A loop whose branch depends on a hashed (pseudo-random) value:
    // the body is skipped unpredictably, and the tail computation
    // after the join point is control independent.
    const isa::Program prog = isa::assembleProgram(R"(
        li s0, 0
        li s1, 5000
        li s6, 0
    loop:
        # t0 = multiplicative hash of the loop counter (the multiply
        # carries make the branch genuinely hard to predict)
        addi t0, s0, 12345
        li   t1, -0x61c8864680b583eb
        mul  t0, t0, t1
        srli t1, t0, 31
        xor  t0, t0, t1
        li   t1, -0x3b314601e57a13ad
        mul  t0, t0, t1
        srli t1, t0, 29
        xor  t0, t0, t1
        # hard-to-predict branch on a hashed bit
        andi t1, t0, 1
        beqz t1, join
        addi s2, s2, 1          # control-dependent work
        xori s2, s2, 0x2a
    join:
        # control-independent tail (candidate for squash reuse)
        mv   t2, s0
        addi t2, t2, 7
        slli t2, t2, 1
        xori t2, t2, 0x15
        xor  s6, s6, t2
        addi s0, s0, 1
        blt  s0, s1, loop
        halt
    )");

    std::cout << "Running baseline (no squash reuse)...\n";
    const RunResult base = runSim(prog, specConfig({.scheme = "none"}));

    std::cout << "Running Multi-Stream Squash Reuse (4 streams x 64)...\n";
    const RunResult rgid = runSim(prog,
                                  specConfig({.streams = 4, .entries = 64}));

    std::cout << "\n  checksum (s6):        0x" << std::hex
              << base.archRegs[22] << std::dec << " (both runs must match: "
              << (base.archRegs[22] == rgid.archRegs[22] ? "yes" : "NO!")
              << ")\n";
    std::cout << "  baseline:  " << base.cycles << " cycles, IPC "
              << base.ipc << "\n";
    std::cout << "  reuse:     " << rgid.cycles << " cycles, IPC "
              << rgid.ipc << "\n";
    std::cout << "  IPC improvement: "
              << (rgid.ipcImprovementOver(base) * 100.0) << "%\n";
    std::cout << "  branch mispredicts (baseline): "
              << base.stats.get("core.branchMispredicts") << "\n";
    std::cout << "  squash-reuse successes:        "
              << rgid.stats.get("reuse.success") << "\n";
    std::cout << "  reconvergences detected:       "
              << rgid.stats.get("reuse.reconvDetected") << "\n";
    return 0;
}
