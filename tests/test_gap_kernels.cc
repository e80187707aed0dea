/**
 * Validates the assembly GAP kernels against their C++ reference
 * implementations: result arrays in simulated memory must match the
 * reference exactly (same fixed-point arithmetic, same traversal
 * order). Functional-emulator runs validate the kernels; O3 runs with
 * squash reuse validate the whole stack end to end.
 */

#include <gtest/gtest.h>

#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "sim/func_emu.hh"
#include "workloads/gap_kernels.hh"
#include "workloads/gap_reference.hh"
#include "workloads/graph.hh"

using namespace mssr;
using namespace mssr::workloads;

namespace
{

Graph
testGraph(unsigned scale = 7)
{
    return makeKronecker(scale, 8, 99, true);
}

/** Runs @p prog functionally and returns the final memory. */
std::unique_ptr<Memory>
runFunctional(const isa::Program &prog)
{
    auto mem = std::make_unique<Memory>();
    FuncEmu emu(prog, *mem);
    emu.run(80'000'000);
    EXPECT_TRUE(emu.halted());
    return mem;
}

std::vector<std::int64_t>
readArray(const Memory &mem, Addr base, std::size_t n)
{
    std::vector<std::int64_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::int64_t>(mem.read64(base + 8 * i));
    return out;
}

} // namespace

TEST(GapKernels, BfsMatchesReference)
{
    const Graph g = testGraph();
    isa::Program prog = makeBfs(g);
    auto mem = runFunctional(prog);
    EXPECT_EQ(readArray(*mem, prog.label("depth"), g.numVertices),
              bfsRef(g));
}

TEST(GapKernels, DirectionOptimizingBfsMatchesReference)
{
    // Both BFS variants must compute identical depths (canonical BFS
    // levels are strategy independent).
    const Graph g = testGraph(8);
    isa::Program prog = makeBfsDirectionOptimizing(g);
    auto mem = runFunctional(prog);
    EXPECT_EQ(readArray(*mem, prog.label("depth"), g.numVertices),
              bfsRef(g));
}

TEST(GapKernels, DirectionOptimizingBfsThresholdSweep)
{
    const Graph g = testGraph(7);
    const auto expected = bfsRef(g);
    // Divisor 1 ~ always top-down-ish; huge divisor ~ always bottom-up.
    for (unsigned divisor : {1u, 4u, 64u}) {
        isa::Program prog = makeBfsDirectionOptimizing(g, divisor);
        auto mem = runFunctional(prog);
        EXPECT_EQ(readArray(*mem, prog.label("depth"), g.numVertices),
                  expected)
            << "divisor " << divisor;
    }
}

TEST(GapKernels, DirectionOptimizingBfsOnO3WithReuse)
{
    const Graph g = testGraph(6);
    isa::Program prog = makeBfsDirectionOptimizing(g);
    Memory mem;
    const RunResult r = runSim(prog, specConfig({.streams = 4, .entries = 64}),
                               &mem);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(readArray(mem, prog.label("depth"), g.numVertices),
              bfsRef(g));
}

TEST(GapKernels, CcMatchesReference)
{
    const Graph g = testGraph();
    isa::Program prog = makeCc(g);
    auto mem = runFunctional(prog);
    EXPECT_EQ(readArray(*mem, prog.label("label"), g.numVertices), ccRef(g));
}

TEST(GapKernels, PrMatchesReference)
{
    const Graph g = testGraph();
    isa::Program prog = makePr(g, 3);
    auto mem = runFunctional(prog);
    EXPECT_EQ(readArray(*mem, prog.label("rank"), g.numVertices),
              prRef(g, 3));
}

TEST(GapKernels, SsspMatchesReference)
{
    const Graph g = testGraph();
    isa::Program prog = makeSssp(g, 32);
    auto mem = runFunctional(prog);
    EXPECT_EQ(readArray(*mem, prog.label("dist"), g.numVertices),
              ssspRef(g, 32));
}

TEST(GapKernels, TcMatchesReference)
{
    const Graph g = testGraph();
    isa::Program prog = makeTc(g);
    auto mem = runFunctional(prog);
    EXPECT_EQ(static_cast<std::int64_t>(
                  mem->read64(prog.label("tricount"))),
              tcRef(g));
    EXPECT_GT(tcRef(g), 0); // Kronecker graphs have triangles
}

TEST(GapKernels, BcMatchesReference)
{
    const Graph g = testGraph(6);
    isa::Program prog = makeBc(g, 2);
    auto mem = runFunctional(prog);
    EXPECT_EQ(readArray(*mem, prog.label("bc"), g.numVertices), bcRef(g, 2));
}

TEST(GapKernels, BfsOnUniformGraph)
{
    const Graph g = makeUniform(7, 8, 7, true);
    isa::Program prog = makeBfs(g);
    auto mem = runFunctional(prog);
    EXPECT_EQ(readArray(*mem, prog.label("depth"), g.numVertices),
              bfsRef(g));
}

// End-to-end: the O3 core with each reuse scheme must produce exactly
// the reference results for a graph workload.
TEST(GapKernels, BfsOnO3AllSchemes)
{
    const Graph g = testGraph(6);
    isa::Program prog = makeBfs(g);
    const auto expected = bfsRef(g);
    for (const SimConfig &cfg :
         {specConfig({.scheme = "none"}),
          specConfig({.streams = 4, .entries = 64}),
          specConfig({.scheme = "regint", .sets = 64, .ways = 4})}) {
        Memory mem;
        const RunResult r = runSim(prog, cfg, &mem);
        ASSERT_TRUE(r.halted);
        EXPECT_EQ(readArray(mem, prog.label("depth"), g.numVertices),
                  expected)
            << "scheme " << toString(cfg.reuseKind);
    }
}

TEST(GapKernels, CcOnO3WithReuse)
{
    const Graph g = testGraph(6);
    isa::Program prog = makeCc(g);
    Memory mem;
    const RunResult r = runSim(prog, specConfig({.streams = 4, .entries = 64}),
                               &mem);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(readArray(mem, prog.label("label"), g.numVertices), ccRef(g));
}

TEST(GapKernels, SsspOnO3WithReuse)
{
    const Graph g = testGraph(6);
    isa::Program prog = makeSssp(g, 32);
    Memory mem;
    const RunResult r = runSim(prog, specConfig({.streams = 2, .entries = 64}),
                               &mem);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(readArray(mem, prog.label("dist"), g.numVertices),
              ssspRef(g, 32));
}
