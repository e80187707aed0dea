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
using namespace mssr::analysis;

namespace
{

SimConfig
config(unsigned streams, unsigned wpb_entries, unsigned log_entries)
{
    SimConfig cfg;
    cfg.reuseKind = ReuseKind::Rgid;
    cfg.reuse.numStreams = streams;
    cfg.reuse.wpbEntriesPerStream = wpb_entries;
    cfg.reuse.squashLogEntriesPerStream = log_entries;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> suites = {"spec2006", "spec2017",
                                             "gap"};
    bench::Harness h(argc, argv, "fig10_ipc_multistream",
                     workloads::suiteWorkloadNames(suites),
                     bench::Baselines::Build);
    banner(std::cout,
           "Figure 10: IPC improvement per multi-stream configuration");
    printScale(h.set());

    struct Config
    {
        const char *label;
        unsigned streams, wpb, log;
    };
    // WPB entries are fetch blocks (~4 insts each, section 4.1.2);
    // the squash log holds the same stream at instruction granularity.
    const Config configs[] = {
        {"1x16", 1, 16, 64},     {"1x64", 1, 64, 256},
        {"2x64", 2, 64, 256},    {"4x64", 4, 64, 256},
        {"4x1024", 4, 1024, 4096},
    };

    // Submit the whole (workload x config) point grid as one batch.
    std::vector<BatchJob> jobs;
    for (const auto &suite : suites)
        for (const auto &w : workloads::suiteWorkloads(suite))
            for (const auto &c : configs)
                jobs.push_back(h.job(suite + "/" + w.name + "/" + c.label,
                                     w.name,
                                     config(c.streams, c.wpb, c.log)));
    const std::vector<RunResult> results = h.runBatch(jobs);

    std::size_t point = 0;
    for (const auto &suite : suites) {
        std::cout << "\n[" << suite << "]\n";
        std::vector<std::string> headers = {"Benchmark", "base IPC"};
        for (const auto &c : configs)
            headers.push_back(c.label);
        Table table(headers);
        std::vector<double> sums(std::size(configs), 0.0);
        unsigned count = 0;
        for (const auto &w : workloads::suiteWorkloads(suite)) {
            const RunResult &base = h.set().baseline(w.name);
            std::vector<std::string> row = {w.name, fixed(base.ipc, 3)};
            for (std::size_t idx = 0; idx < std::size(configs); ++idx) {
                const double gain =
                    results[point++].ipcImprovementOver(base);
                sums[idx] += gain;
                row.push_back(percent(gain));
            }
            ++count;
            table.addRow(row);
        }
        std::vector<std::string> avg = {"average", ""};
        for (double s : sums)
            avg.push_back(percent(s / count));
        table.addRow(avg);
        table.print(std::cout);
    }

    std::cout << "\nExpected shape (paper): gains grow from 1x16 to 4x64;"
                 " astar/gobmk/leela and\nmost GAP kernels benefit;"
                 " mcf/omnetpp are flat (memory bound); xz can go\n"
                 "negative from reused-load memory-order violations;"
                 " 4x1024 is the upper bound.\n";
    return 0;
}
