/**
 * GAP-style graph example: generates a Kronecker graph, runs the BFS
 * kernel (written in the mini ISA) on the simulated core with and
 * without Multi-Stream Squash Reuse, validates the resulting depth
 * array against the C++ reference, and reports where the reuse wins
 * came from (the data-dependent "visited?" branch).
 *
 * Usage: graph_bfs [scale] [edge_factor]
 */

#include <cstdlib>
#include <iostream>

#include "analysis/report.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "workloads/gap_kernels.hh"
#include "workloads/gap_reference.hh"

using namespace mssr;
using namespace mssr::analysis;
using namespace mssr::workloads;

int
main(int argc, char **argv)
{
    const unsigned scale =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 10;
    const unsigned degree =
        argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 16;

    std::cout << "Generating Kronecker graph: 2^" << scale
              << " vertices, edge factor " << degree << "...\n";
    const Graph graph = makeKronecker(scale, degree, 42, true);
    std::cout << "  " << graph.numVertices << " vertices, "
              << graph.numEdges() << " directed edges\n";

    isa::Program prog = makeBfs(graph);
    std::cout << "BFS kernel: " << prog.numInsts()
              << " static instructions\n";

    const RunResult base = runSim(prog, specConfig({.scheme = "none"}));
    Memory mem;
    const RunResult reuse =
        runSim(prog, specConfig({.streams = 4, .entries = 64}), &mem);

    // Validate against the reference implementation.
    const auto expected = bfsRef(graph);
    const Addr depthBase = prog.label("depth");
    for (std::uint32_t v = 0; v < graph.numVertices; ++v) {
        if (static_cast<std::int64_t>(mem.read64(depthBase + 8 * v)) !=
            expected[v]) {
            std::cerr << "depth[" << v << "] mismatch -- bug!\n";
            return 1;
        }
    }
    std::cout << "depth array validated against the C++ reference.\n\n";

    Table table({"Metric", "baseline", "4-stream reuse"});
    table.addRow({"cycles", std::to_string(base.cycles),
                  std::to_string(reuse.cycles)});
    table.addRow({"IPC", fixed(base.ipc, 3), fixed(reuse.ipc, 3)});
    table.addRow({"branch mispredicts",
                  fixed(base.stats.get("core.branchMispredicts"), 0),
                  fixed(reuse.stats.get("core.branchMispredicts"), 0)});
    table.addRow({"reuse successes", "-",
                  fixed(reuse.stats.get("reuse.success"), 0)});
    table.addRow({"loads reused", "-",
                  fixed(reuse.stats.get("reuse.loadsReused"), 0)});
    table.addRow({"load verifications ok", "-",
                  fixed(reuse.stats.get("core.verifyOk"), 0)});
    table.addRow({"verification flushes", "-",
                  fixed(reuse.stats.get("core.verifyFailFlushes"), 0)});
    table.print(std::cout);

    std::cout << "\nIPC improvement: "
              << percent(reuse.ipcImprovementOver(base))
              << "  (the H2P branch is BFS's 'depth[v] == -1' visited "
                 "check;\n   its wrong paths run into the control-"
                 "independent neighbour-scan code\n   that squash reuse "
                 "recovers)\n";
    return 0;
}
