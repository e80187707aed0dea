/**
 * Sampled-simulation accuracy-vs-speed sweep: for the paper's fig10
 * (4 streams x 64 WPB) and fig11 (8 streams x 16 WPB) configurations
 * on a cross-suite workload subset, runs full-detail ground truth and
 * the SMARTS-style sampled engine side by side and reports, per
 * point: the sampled IPC estimate with its 95% confidence interval,
 * the estimate error against the full-detail IPC, whether the truth
 * falls inside the CI, and the wall-clock speedup of sampling
 * (full detail time / (window detail time + functional scan time)).
 *
 * Knobs (beyond the usual MSSR_SCALE/MSSR_ITERS/MSSR_JOBS):
 *   MSSR_SAMPLE_PERIOD  insts between checkpoints (default 50000)
 *   MSSR_SAMPLE_WINDOW  detailed insts per window (default 4000)
 *
 * With --json or MSSR_JSON on, the Harness writes BENCH_batch.json
 * with one record per (workload, config) point carrying all of the
 * above (driver/job_record's sampledAccuracyRecord), so the
 * accuracy/speedup contract is machine-checkable. Sampled jobs take
 * neither MSSR_FF nor MSSR_PROFILE, and each full-detail run is its
 * sampled job with sampling off, so the sweep ignores both.
 */

#include <cmath>

#include "bench_common.hh"
#include "common/argparse.hh"
#include "driver/job_record.hh"

using namespace mssr;
using namespace mssr::analysis;

int
main(int argc, char **argv)
{
    const std::uint64_t period = envU64("MSSR_SAMPLE_PERIOD", 50000);
    const std::uint64_t window = envU64("MSSR_SAMPLE_WINDOW", 4000);

    bench::Harness h(argc, argv, "sampled_accuracy");
    h.banner("Sampled simulation: accuracy vs speed");
    std::cout << "[sampling: period " << period << ", window " << window
              << "; override with MSSR_SAMPLE_PERIOD / "
                 "MSSR_SAMPLE_WINDOW]\n";

    // One representative per suite keeps the sweep minutes-scale while
    // still crossing workload structures (search, game tree, graph).
    const std::vector<std::string> names = {"astar", "leela", "bc", "cc"};
    const char *labels[] = {"fig10/4x64", "fig11/8x16"};
    const unsigned streams[] = {4, 8};
    const unsigned entries[] = {256, 64};

    std::vector<BatchJob> jobs;
    for (std::size_t c = 0; c < std::size(labels); ++c)
        for (const auto &name : names)
            jobs.push_back(h.job({.name = std::string(labels[c]) + "/" + name,
                                  .workload = name, .streams = streams[c],
                                  .entries = entries[c],
                                  .samplePeriod = period,
                                  .sampleWindow = window}));
    const std::vector<bench::Harness::SampledPoint> points =
        h.runSampled(jobs);

    Table table({"point", "full IPC", "est IPC", "+/-95%", "n", "error",
                 "in CI", "speedup"});
    std::size_t coveredCount = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double fullIpc = points[i].full.ipc;
        const SampleEstimate &e = points[i].sampled.ipcEst;
        const bool covered = e.covers(fullIpc);
        coveredCount += covered ? 1 : 0;
        table.addRow(
            {jobs[i].name, fixed(fullIpc, 4), fixed(e.mean, 4),
             fixed(e.ci95, 4), std::to_string(e.n),
             fullIpc > 0.0 && !std::isnan(e.mean)
                 ? percent(e.mean / fullIpc - 1.0)
                 : std::string("n/a"),
             covered ? "yes" : "NO",
             fixed(samplingSpeedup(points[i].full, points[i].sampled), 1) +
                 "x"});
    }
    table.print(std::cout);
    std::cout << "\n" << coveredCount << "/" << points.size()
              << " points bracket the full-detail IPC within the 95% "
                 "CI\n";
    return 0;
}
