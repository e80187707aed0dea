/**
 * @file
 * Helpers that several test files share: a pooled instruction with a
 * given sequence number, and the programs the pipeview, trace,
 * checkpoint and sampling tests run.
 */

#ifndef MSSR_TESTS_TEST_HELPERS_HH
#define MSSR_TESTS_TEST_HELPERS_HH

#include <sstream>
#include <string>

#include "core/dyn_inst.hh"
#include "isa/assembler.hh"
#include "workloads/registry.hh"

namespace mssr::test
{

/** A pooled instruction numbered @p seq; the pool outlives every
 *  handle the tests make. */
inline DynInstPtr
makeInst(SeqNum seq)
{
    static DynInstPool pool;
    auto inst = pool.acquire();
    inst->seq = seq;
    return inst;
}

/** Hashed hard-to-predict branch loop: plenty of squashes and reuse. */
inline isa::Program
squashyProgram(int iterations = 300)
{
    std::ostringstream src;
    src << R"(
        li s0, 0
        li s1, )" << iterations << R"(
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
    )";
    return isa::assembleProgram(src.str());
}

/** Workload @p name at a small scale (graph scale 6, 120 iterations). */
inline isa::Program
testProgram(const std::string &name = "bfs")
{
    workloads::WorkloadScale scale;
    scale.graphScale = 6;
    scale.iterations = 120;
    return workloads::buildWorkload(name, scale);
}

} // namespace mssr::test

#endif // MSSR_TESTS_TEST_HELPERS_HH
