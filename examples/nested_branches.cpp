/**
 * Listing-1 walkthrough: runs the paper's nested-branch microbenchmark
 * (section 2.2) on the baseline core, on single-stream squash reuse
 * (the DCI-equivalent), on the full multi-stream configuration and on
 * Register Integration -- then explains the reconvergence events it
 * observed (simple vs software-induced vs hardware-induced, stream
 * distances).
 *
 * Usage: nested_branches [iterations]
 */

#include <cstdlib>
#include <iostream>

#include "analysis/report.hh"
#include "driver/job_spec.hh"
#include "driver/sim_runner.hh"
#include "workloads/micro.hh"

using namespace mssr;
using namespace mssr::analysis;

int
main(int argc, char **argv)
{
    workloads::MicroParams params;
    params.iterations = argc > 1
                            ? static_cast<unsigned>(std::atoi(argv[1]))
                            : 4000;

    std::cout << "Building the Listing-1 microbenchmark (nested-mispred, "
              << params.iterations << " iterations)...\n";
    const isa::Program prog = workloads::makeNestedMispred(params);

    const RunResult base = runSim(prog, specConfig({.scheme = "none"}));
    std::cout << "\nbaseline: " << base.cycles << " cycles, IPC "
              << fixed(base.ipc, 3) << ", "
              << base.stats.get("core.branchMispredicts")
              << " branch mispredicts\n";

    Table table({"Configuration", "Cycles", "dRuntime", "Reuses",
                 "Reconv (simple/sw/hw)", "d=1/d=2/d>=3"});
    struct Entry
    {
        const char *label;
        SimConfig cfg;
    };
    const Entry entries[] = {
        {"1 stream (DCI-like)", specConfig({.streams = 1, .entries = 64})},
        {"2 streams", specConfig({.streams = 2, .entries = 64})},
        {"4 streams (paper cfg)", specConfig({.streams = 4, .entries = 64})},
        {"RI 64x4", specConfig({.scheme = "regint", .sets = 64, .ways = 4})},
    };
    for (const Entry &e : entries) {
        const RunResult r = runSim(prog, e.cfg);
        const bool ri = e.cfg.reuseKind == ReuseKind::RegInt;
        const double d3 = r.stats.get("reuse.distance3") +
                          r.stats.get("reuse.distance4") +
                          r.stats.get("reuse.distance5");
        table.addRow(
            {e.label, std::to_string(r.cycles),
             percent(r.speedupOver(base) - 1.0),
             fixed(ri ? r.stats.get("ri.integrations")
                      : r.stats.get("reuse.success"),
                   0),
             ri ? "-"
                : fixed(r.stats.get("reuse.reconvSimple"), 0) + "/" +
                      fixed(r.stats.get("reuse.reconvSoftware"), 0) + "/" +
                      fixed(r.stats.get("reuse.reconvHardware"), 0),
             ri ? "-"
                : fixed(r.stats.get("reuse.distance1"), 0) + "/" +
                      fixed(r.stats.get("reuse.distance2"), 0) + "/" +
                      fixed(d3, 0)});
        if (base.archRegs[22] != r.archRegs[22]) {
            std::cerr << "checksum mismatch -- simulation bug!\n";
            return 1;
        }
    }
    std::cout << "\n";
    table.print(std::cout);

    std::cout <<
        "\nWhat happened: both branches test hashed (unpredictable) "
        "bits, and data1's\nvalue chain makes the elder branch resolve "
        "after the younger one, so squashes\nnest (hardware-induced "
        "multi-stream reconvergence, Figure 1b). With one\nstream only "
        "the most recent squashed path can be reused; extra streams\n"
        "recover reuse from the earlier, more complete paths.\n";
    return 0;
}
