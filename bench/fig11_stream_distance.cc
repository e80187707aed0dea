/**
 * Reproduces Figure 11: reconvergence stream-distance breakdown. The
 * distance of a reconvergence is the number of squash events between
 * the squashed stream being reconverged with and the current fetch
 * stream (1 = neighboring stream). The paper reports >50% at distance
 * 1 and 90-95% within distance 3, motivating the 4-stream default.
 */

#include "bench_common.hh"

using namespace mssr;
using namespace mssr::analysis;

int
main(int argc, char **argv)
{
    const std::vector<std::string> names = workloads::suiteWorkloadNames(
        {"spec2006", "spec2017", "gap", "micro"});
    bench::Harness h(argc, argv, "fig11_stream_distance");
    h.banner("Figure 11: reconvergence stream distance");

    // Eight streams track deep, so the tail is visible.
    std::vector<BatchJob> jobs;
    for (const auto &name : names)
        jobs.push_back(h.job({.workload = name, .streams = 8, .entries = 64}));
    const std::vector<RunResult> results = h.runBatch(jobs);

    Table table({"Benchmark", "d=1", "d=2", "d=3", "d>=4", "cum<=3"});
    double allD[5] = {0, 0, 0, 0, 0};
    std::size_t point = 0;
    for (const auto &name : names) {
        const RunResult &r = results[point++];
        double d[4] = {r.stats.get("reuse.distance1"),
                       r.stats.get("reuse.distance2"),
                       r.stats.get("reuse.distance3"), 0.0};
        for (unsigned k = 4; k <= 7; ++k)
            d[3] += r.stats.get("reuse.distance" + std::to_string(k));
        const double total = d[0] + d[1] + d[2] + d[3];
        if (total == 0) {
            table.addRow({name, "-", "-", "-", "-", "-"});
            continue;
        }
        for (int i = 0; i < 4; ++i)
            allD[i] += d[i];
        allD[4] += total;
        table.addRow({name, percent(d[0] / total, 0),
                      percent(d[1] / total, 0),
                      percent(d[2] / total, 0),
                      percent(d[3] / total, 0),
                      percent((d[0] + d[1] + d[2]) / total, 0)});
    }
    if (allD[4] > 0) {
        table.addRow({"ALL", percent(allD[0] / allD[4], 0),
                      percent(allD[1] / allD[4], 0),
                      percent(allD[2] / allD[4], 0),
                      percent(allD[3] / allD[4], 0),
                      percent((allD[0] + allD[1] + allD[2]) / allD[4], 0)});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape (paper): over 50% of reconvergence at"
                 " distance 1; 90-95%\nwithin distance 3 -- motivating"
                 " the 4-stream configuration.\n";
    return 0;
}
