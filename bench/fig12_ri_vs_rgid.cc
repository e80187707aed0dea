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

int
main(int argc, char **argv)
{
    const std::vector<std::string> names =
        workloads::suiteWorkloadNames({"gap"});
    bench::Harness h(argc, argv, "fig12_ri_vs_rgid");
    h.banner("Figure 12: Register Integration vs RGID on GAP");

    const unsigned kList[] = {1, 2, 4};
    const unsigned sizeList[] = {64, 128};
    const std::vector<std::string> labels = {"RI 1w",   "RI 2w",   "RI 4w",
                                             "RGID 1s", "RGID 2s", "RGID 4s"};

    std::vector<BatchJob> jobs;
    for (unsigned size : sizeList) {
        const std::string s = std::to_string(size);
        for (const auto &name : names) {
            for (unsigned ways : kList)
                jobs.push_back(h.job(
                    {.name = name + "/ri" + std::to_string(ways) + "w" + s,
                     .workload = name, .scheme = "regint", .sets = size,
                     .ways = ways}));
            for (unsigned streams : kList)
                jobs.push_back(h.job(
                    {.name = name + "/rgid" + std::to_string(streams) + "s" +
                             s,
                     .workload = name, .streams = streams, .entries = size}));
        }
    }
    const std::vector<RunResult> bases = h.runBaselines(names);
    const std::vector<RunResult> results = h.runBatch(jobs);

    const RunResult *point = results.data();
    for (unsigned size : sizeList) {
        std::cout << "\n[stream size / set count = " << size << "]\n";
        point = bench::printGains(names, labels, bases.data(), point,
                                  /*baseIpc=*/false, /*average=*/true);
    }

    std::cout << "\nExpected shape (paper): RGID outperforms RI on"
                 " bc/bfs/cc and is comparable\non pr/sssp/tc; two"
                 " streams give the best overall RGID result (deeper\n"
                 "streams increase memory-order violations).\n";
    return 0;
}
