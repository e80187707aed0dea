/**
 * Reproduces Figure 4: breakdown of reconvergence types -- simple
 * (merging onto the squashed path of the same diverging branch),
 * software-induced (onto an elder branch's squashed path) and
 * hardware-induced (onto a younger branch's squashed path, produced by
 * out-of-order branch resolution) -- across the SPEC-like and GAP
 * workloads.
 */

#include "bench_common.hh"

using namespace mssr;
using namespace mssr::analysis;

int
main(int argc, char **argv)
{
    const std::vector<std::string> suites = {"spec2006", "spec2017",
                                             "gap"};
    bench::Harness h(argc, argv, "fig4_reconv_breakdown",
                     workloads::suiteWorkloadNames(suites),
                     bench::Baselines::None);
    banner(std::cout, "Figure 4: breakdown of reconvergence types");
    printScale(h.set());

    std::vector<BatchJob> jobs;
    for (const auto &suite : suites)
        for (const auto &w : workloads::suiteWorkloads(suite))
            jobs.push_back(h.job(suite + "/" + w.name, w.name,
                                 rgidConfig(4, 64)));
    const std::vector<RunResult> results = h.runBatch(jobs);

    Table table({"Suite", "Benchmark", "Simple", "SW-induced",
                 "HW-induced", "Multi-stream total"});
    std::size_t point = 0;
    for (const auto &suite : suites) {
        for (const auto &w : workloads::suiteWorkloads(suite)) {
            const RunResult &r = results[point++];
            const double simple = r.stats.get("reuse.reconvSimple");
            const double sw = r.stats.get("reuse.reconvSoftware");
            const double hw = r.stats.get("reuse.reconvHardware");
            const double total = simple + sw + hw;
            if (total == 0) {
                table.addRow({suite, w.name, "-", "-", "-", "-"});
                continue;
            }
            table.addRow({suite, w.name, percent(simple / total, 0),
                          percent(sw / total, 0), percent(hw / total, 0),
                          percent((sw + hw) / total, 0)});
        }
    }
    table.print(std::cout);
    std::cout << "\nExpected shape (paper): GAP kernels are dominated by"
                 " simple reconvergence;\nbranchy SPEC-like workloads"
                 " show a sizable multi-stream fraction\n(paper: 15%-43%"
                 " on mcf..omnetpp).\n";
    return 0;
}
