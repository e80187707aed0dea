/**
 * Reproduces Figure 12: IPC improvement of Register Integration vs the
 * RGID scheme (Multi-Stream Squash Reuse) on the GAP suite, at matched
 * squashed-entry capacities:
 *   RI:   ways in {1,2,4} x sets in {64,128}
 *   RGID: streams in {1,2,4} x squash-log entries in {64,128}
 * (1 stream is the DCI-equivalent configuration, section 4.1.2.)
 */

#include "bench_common.hh"

using namespace mssr;
using namespace mssr::analysis;

int
main(int argc, char **argv)
{
    bench::Harness h(argc, argv, "fig12_ri_vs_rgid",
                     workloads::suiteWorkloadNames({"gap"}),
                     bench::Baselines::Build);
    banner(std::cout, "Figure 12: Register Integration vs RGID on GAP");
    printScale(h.set());

    const unsigned kList[] = {1, 2, 4};
    const unsigned sizeList[] = {64, 128};

    std::vector<BatchJob> jobs;
    for (unsigned size : sizeList) {
        for (const auto &name : h.set().names()) {
            for (unsigned ways : kList)
                jobs.push_back(h.job(name + "/ri" +
                                         std::to_string(ways) + "w" +
                                         std::to_string(size),
                                     name, regIntConfig(size, ways)));
            for (unsigned streams : kList)
                jobs.push_back(h.job(name + "/rgid" +
                                         std::to_string(streams) + "s" +
                                         std::to_string(size),
                                     name, rgidConfig(streams, size)));
        }
    }
    const std::vector<RunResult> results = h.runBatch(jobs);

    std::size_t point = 0;
    for (unsigned size : sizeList) {
        std::cout << "\n[stream size / set count = " << size << "]\n";
        Table table({"Benchmark", "RI 1w", "RI 2w", "RI 4w", "RGID 1s",
                     "RGID 2s", "RGID 4s"});
        std::vector<double> sums(6, 0.0);
        unsigned count = 0;
        for (const auto &name : h.set().names()) {
            const RunResult &base = h.set().baseline(name);
            std::vector<std::string> row = {name};
            for (unsigned idx = 0; idx < 6; ++idx) {
                const double gain =
                    results[point++].ipcImprovementOver(base);
                sums[idx] += gain;
                row.push_back(percent(gain));
            }
            ++count;
            table.addRow(row);
        }
        std::vector<std::string> avg = {"average"};
        for (double s : sums)
            avg.push_back(percent(s / count));
        table.addRow(avg);
        table.print(std::cout);
    }

    std::cout << "\nExpected shape (paper): RGID outperforms RI on"
                 " bc/bfs/cc and is comparable\non pr/sssp/tc; two"
                 " streams give the best overall RGID result (deeper\n"
                 "streams increase memory-order violations).\n";
    return 0;
}
