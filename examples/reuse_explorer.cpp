/**
 * Design-space explorer: sweeps the Multi-Stream Squash Reuse
 * structure sizes (streams x squash-log entries) on a chosen workload
 * and prints the IPC-improvement matrix plus hardware cost from the
 * storage model -- the tradeoff the paper's section 4.1.1 navigates to
 * arrive at the 4-stream x 64-entry configuration.
 *
 * Usage: reuse_explorer [workload] (default: astar; any name from the
 * registry: astar gobmk mcf omnetpp sjeng leela xz mcf17 omnetpp17
 * deepsjeng exchange2 bfs bc cc pr sssp tc nested-mispred
 * linear-mispred)
 */

#include <iostream>
#include <string>

#include "analysis/report.hh"
#include "analysis/storage_model.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "workloads/registry.hh"

using namespace mssr;
using namespace mssr::analysis;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "astar";
    workloads::WorkloadScale scale = workloads::WorkloadScale::fromEnv();
    std::cout << "Workload: " << name << "\n";
    const isa::Program prog = workloads::buildWorkload(name, scale);

    const RunResult base = runSim(prog, specConfig({.scheme = "none"}));
    std::cout << "baseline: " << base.cycles << " cycles, IPC "
              << fixed(base.ipc, 3) << ", mispredict rate "
              << percent(base.stats.get("core.condMispredictRate"))
              << "\n\n";

    const unsigned streamList[] = {1, 2, 4, 8};
    const unsigned entryList[] = {16, 32, 64, 128};

    Table ipc({"IPC gain", "16 entries", "32", "64", "128"});
    Table cost({"Storage KB", "16 entries", "32", "64", "128"});
    for (unsigned streams : streamList) {
        std::vector<std::string> ipcRow = {std::to_string(streams) +
                                           " streams"};
        std::vector<std::string> costRow = {std::to_string(streams) +
                                            " streams"};
        for (unsigned entries : entryList) {
            const RunResult r = runSim(
                prog, specConfig({.streams = streams, .entries = entries}));
            ipcRow.push_back(percent(r.ipcImprovementOver(base)));
            StorageParams params;
            params.numStreams = streams;
            params.squashLogEntries = entries;
            params.wpbEntries = std::max(1u, entries / 4);
            costRow.push_back(fixed(computeStorage(params).totalKB(), 2));
        }
        ipc.addRow(ipcRow);
        cost.addRow(costRow);
    }
    banner(std::cout, "IPC improvement over baseline");
    ipc.print(std::cout);
    banner(std::cout, "Total additional storage (Table 2 model)");
    cost.print(std::cout);

    std::cout << "\nThe paper picks 4 streams x 64 entries: most of the"
                 " reachable gain at 3.53KB\n(over 90% of reconvergence"
                 " happens within stream distance 3, Figure 11).\n";
    return 0;
}
