/**
 * Reproduces Figure 10: IPC improvement over the no-reuse baseline for
 * the paper's Multi-Stream Squash Reuse configurations -- 1 stream x 16
 * WPB entries, 1x64, 2x64, 4x64 and the 4x1024 upper bound -- across
 * the SPECint2006-like, SPECint2017-like and GAP workloads.
 *
 * Paper reference: average IPC gains of 2.2% (SPECint2006), 0.8%
 * (SPECint2017) and 2.4% (GAP); astar peaks at 8.9%, bc at 6.1%,
 * cc at 4.0%; mcf/omnetpp stay flat (memory bound); xz can degrade
 * (reused-load memory-order violations).
 *
 * All design points are submitted through the BatchRunner, so the
 * sweep parallelizes across MSSR_JOBS workers; the printed tables are
 * byte-identical to a sequential (MSSR_JOBS=1) run.
 */

#include "bench_common.hh"

using namespace mssr;

int
main(int argc, char **argv)
{
    const std::vector<std::string> suites = {"spec2006", "spec2017",
                                             "gap"};
    bench::Harness h(argc, argv, "fig10_ipc_multistream");
    h.banner("Figure 10: IPC improvement per multi-stream configuration");

    // WPB entries are fetch blocks (~4 insts each, section 4.1.2): the
    // squash log's P entries per stream imply P/4 of them.
    const std::vector<std::string> labels = {"1x16", "1x64", "2x64", "4x64",
                                             "4x1024"};
    const unsigned streams[] = {1, 1, 2, 4, 4};
    const unsigned entries[] = {64, 256, 256, 256, 4096};

    // Submit the whole (workload x config) point grid as one batch.
    std::vector<BatchJob> jobs;
    for (const auto &suite : suites)
        for (const auto &name : workloads::suiteWorkloadNames({suite}))
            for (std::size_t c = 0; c < labels.size(); ++c)
                jobs.push_back(h.job({.name = suite + "/" + name + "/" +
                                              labels[c],
                                      .workload = name, .streams = streams[c],
                                      .entries = entries[c]}));
    const std::vector<RunResult> bases =
        h.runBaselines(workloads::suiteWorkloadNames(suites));
    const std::vector<RunResult> results = h.runBatch(jobs);

    const RunResult *base = bases.data(), *point = results.data();
    for (const auto &suite : suites) {
        std::cout << "\n[" << suite << "]\n";
        const auto names = workloads::suiteWorkloadNames({suite});
        point = bench::printGains(names, labels, base, point,
                                  /*baseIpc=*/true, /*average=*/true);
        base += names.size();
    }

    std::cout << "\nExpected shape (paper): gains grow from 1x16 to 4x64;"
                 " astar/gobmk/leela and\nmost GAP kernels benefit;"
                 " mcf/omnetpp are flat (memory bound); xz can go\n"
                 "negative from reused-load memory-order violations;"
                 " 4x1024 is the upper bound.\n";
    return 0;
}
