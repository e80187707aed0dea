/**
 * Ablation study of the design choices DESIGN.md calls out (beyond
 * the paper's own sweeps):
 *
 *  - RGID width: 6 bits (Table 2) vs narrower/wider -- quantifies the
 *    finite tag's generation-window cost (DESIGN.md deviation D3).
 *  - Memory-hazard handling: re-execute verification (paper's
 *    evaluated choice) vs the Bloom-filter alternative (section 3.8.3).
 *  - Single-page (VPN) WPB restriction on vs off (section 3.4).
 *  - RI serialized-access modeling on vs off (section 3.7.3).
 *  - Reconvergence timeout sensitivity (section 3.3.2's 1024).
 */

#include <functional>

#include "bench_common.hh"

using namespace mssr;
using namespace mssr::analysis;

namespace
{

/** One column of a block: a job spec, plus an edit of the knobs that
 *  no job key sets yet. */
struct Variant
{
    std::string label;
    ServeJobSpec spec;
    std::function<void(SimConfig &)> knob = nullptr;
};

const ServeJobSpec Rgid4x64{.streams = 4, .entries = 64};
const ServeJobSpec Ri64x4{.scheme = "regint", .sets = 64, .ways = 4};

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> names = {"nested-mispred", "astar",
                                            "gobmk", "bfs", "cc", "xz"};
    bench::Harness h(argc, argv, "ablation_design");
    h.banner("Ablation: Multi-Stream Squash Reuse design choices");
    const std::vector<RunResult> bases = h.runBaselines(names);

    // Every (benchmark x variant) point of a block is one batch.
    auto report = [&](const std::string &title,
                      const std::vector<Variant> &variants) {
        std::vector<BatchJob> jobs;
        for (const auto &name : names) {
            for (const Variant &v : variants) {
                ServeJobSpec spec = v.spec;
                spec.name = name + "/" + v.label;
                spec.workload = name;
                jobs.push_back(h.job(spec));
                if (v.knob)
                    v.knob(jobs.back().config);
            }
        }
        const std::vector<RunResult> results = h.runBatch(jobs);

        std::cout << "\n" << title << "\n";
        std::vector<std::string> labels;
        for (const Variant &v : variants)
            labels.push_back(v.label);
        bench::printGains(names, labels, bases.data(), results.data(),
                          /*baseIpc=*/false, /*average=*/false);
    };

    std::vector<Variant> widths;
    for (unsigned bits : {4u, 6u, 8u, 10u})
        widths.push_back({std::to_string(bits) + "-bit", Rgid4x64,
                          [bits](SimConfig &c) { c.reuse.rgidBits = bits; }});
    report("RGID width (paper: 6 bits; narrower widths shrink the "
           "reuse generation window)",
           widths);

    report("Load-hazard handling (paper evaluates re-execute "
           "verification)",
           {{"verify", Rgid4x64},
            {"bloom", {.streams = 4, .entries = 64, .bloom = true}},
            {"no-load-reuse", Rgid4x64,
             [](SimConfig &c) { c.reuse.reuseLoads = false; }}});

    report("Single-page WPB restriction (timing optimization, "
           "section 3.4)",
           {{"vpn-on", Rgid4x64},
            {"vpn-off", Rgid4x64,
             [](SimConfig &c) { c.reuse.restrictVpn = false; }}});

    std::vector<Variant> timeouts;
    for (unsigned timeout : {128u, 512u, 1024u, 4096u})
        timeouts.push_back({std::to_string(timeout), Rgid4x64,
                            [timeout](SimConfig &c) {
                                c.reuse.reconvTimeoutInsts = timeout;
                            }});
    report("Reconvergence timeout in instructions (paper: 1024)", timeouts);

    // Predictor sensitivity: the worse the baseline predictor, the
    // more squashed work exists to reuse. Uses per-predictor baselines,
    // so both the base and the reuse run of every cell are batch jobs.
    {
        const char *predictors[] = {"tage", "gshare", "bimodal"};
        const char *labels[] = {"tage-sc-l", "gshare", "bimodal"};
        std::vector<BatchJob> jobs;
        for (const auto &name : names) {
            for (std::size_t k = 0; k < std::size(labels); ++k) {
                const std::string label = name + "/" + labels[k];
                ServeJobSpec rgid = Rgid4x64;
                rgid.name = label + "/rgid";
                rgid.workload = name;
                rgid.predictor = predictors[k];
                ServeJobSpec base = baselineJobSpec(rgid);
                base.name = label + "/base";
                jobs.push_back(h.job(base));
                jobs.push_back(h.job(rgid));
            }
        }
        const std::vector<RunResult> results = h.runBatch(jobs);

        std::cout << "\nPredictor sensitivity (reuse gain over the "
                     "matching baseline)\n";
        Table table({"Benchmark", "tage-sc-l", "gshare", "bimodal"});
        std::size_t point = 0;
        for (const auto &name : names) {
            std::vector<std::string> row = {name};
            for (std::size_t k = 0; k < std::size(labels); ++k, point += 2)
                row.push_back(percent(
                    results[point + 1].ipcImprovementOver(results[point])));
            table.addRow(row);
        }
        table.print(std::cout);
    }

    report("Register Integration serialized-access modeling "
           "(section 3.7.3)",
           {{"serialized", Ri64x4},
            {"idealized", Ri64x4,
             [](SimConfig &c) { c.regint.modelSerializedAccess = false; }}});
    return 0;
}
