/**
 * Reproduces Table 1: runtime improvement of the two Listing-1
 * microbenchmark variations under Multi-Stream Squash Reuse (1/2/4
 * streams) and Register Integration (1/2/4 ways, 64 sets) over the
 * no-reuse baseline.
 *
 * Paper reference values (runtime improvement):
 *                nested-mispred          linear-mispred
 *                MSSR      RI            MSSR      RI
 *   1 stream/way  2.4%     -0.1%          6.5%      1.7%
 *   2 streams     14.3%     1.9%         16.7%      6.2%
 *   4 streams     23.4%    17.9%         19.7%     16.4%
 */

#include "bench_common.hh"

using namespace mssr;
using namespace mssr::analysis;

int
main(int argc, char **argv)
{
    const std::vector<std::string> names = {"nested-mispred",
                                            "linear-mispred"};
    bench::Harness h(argc, argv, "table1_micro");
    h.banner("Table 1: microbenchmark runtime improvements");

    const unsigned ks[] = {1, 2, 4};
    std::vector<BatchJob> jobs;
    for (const auto &name : names) {
        for (unsigned k : ks) {
            const std::string s = std::to_string(k);
            jobs.push_back(h.job({.name = name + "/mssr" + s,
                                  .workload = name, .streams = k,
                                  .entries = 64}));
            jobs.push_back(h.job({.name = name + "/ri" + s,
                                  .workload = name, .scheme = "regint",
                                  .sets = 64, .ways = k}));
        }
    }
    const std::vector<RunResult> bases = h.runBaselines(names);
    const std::vector<RunResult> results = h.runBatch(jobs);

    std::size_t point = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i];
        const RunResult &base = bases[i];
        std::cout << "\n" << name << " (baseline: " << base.cycles
                  << " cycles, IPC " << fixed(base.ipc, 3) << ")\n";
        Table table({"Streams/Ways", "MSSR dRuntime", "MSSR reuses",
                     "RI dRuntime", "RI integrations"});
        for (unsigned k : ks) {
            const RunResult &mssr = results[point++];
            const RunResult &ri = results[point++];
            table.addRow(
                {std::to_string(k),
                 percent(mssr.speedupOver(base) - 1.0),
                 fixed(mssr.stats.get("reuse.success"), 0),
                 percent(ri.speedupOver(base) - 1.0),
                 fixed(ri.stats.get("ri.integrations"), 0)});
        }
        table.print(std::cout);
    }

    std::cout << "\nExpected shape (paper): gains grow with the number of"
                 " streams; RI needs\nhigh associativity to become"
                 " competitive (1-way RI is crippled by conflicts\nand"
                 " serialized chained lookups).\n";
    return 0;
}
