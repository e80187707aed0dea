#include "bench_common.hh"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/argparse.hh"
#include "common/build_info.hh"
#include "common/frame.hh"
#include "common/log.hh"
#include "driver/job_record.hh"

namespace mssr::bench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Whether to write BENCH_batch.json: --json on the command line, or
 * MSSR_JSON. MSSR_JSON predates the boolean contract: an empty value
 * still means "on" (legacy presence semantics); any other value
 * follows the strict 0/1/true/false contract.
 */
bool
jsonRequested(int argc, char **argv)
{
    bool json = false;
    if (const char *s = std::getenv("MSSR_JSON"))
        json = std::string(s).empty() || envFlag("MSSR_JSON");
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--json")
            json = true;
    return json;
}

} // namespace

Harness::Harness(int argc, char **argv, std::string benchName)
    : benchName_(std::move(benchName)),
      json_(jsonRequested(argc, argv)),
      profile_(envFlag("MSSR_PROFILE")),
      fastForward_(envU64("MSSR_FF", 0)),
      scale_(workloads::WorkloadScale::fromEnv())
{
    runner_.setProgressEvery(
        static_cast<double>(envU64("MSSR_PROGRESS_EVERY", 0)));
    if (const char *s = std::getenv("MSSR_METRICS_OUT"))
        runner_.setMetricsOut(s);
    runner_.setProgressLabel(benchName_);
}

Harness::~Harness()
{
    logInfo("bench", "batch: ", jobs_, " jobs on ", runner_.threads(),
            " threads, ", wallSeconds_, " s wall");
    if (!json_)
        return;
    const char *path = "BENCH_batch.json";
    std::ofstream os(path);
    if (!os) {
        warn("cannot write ", path);
        return;
    }
    os << "{\n";
    os << "  \"bench\": \"" << jsonEscape(benchName_) << "\",\n";
    os << "  \"threads\": " << runner_.threads() << ",\n";
    os << "  \"build_info\": " << buildInfoJson() << ",\n";
    if (samplePeriod_ != 0)
        os << "  \"sample_period\": " << samplePeriod_
           << ",\n  \"sample_window\": " << sampleWindow_ << ",\n";
    os << "  \"jobs\": " << jobs_ << ",\n";
    os << "  \"wall_sec\": " << wallSeconds_ << ",\n";
    os << "  \"results\": [";
    for (std::size_t i = 0; i < records_.size(); ++i)
        os << (i ? ",\n    " : "\n    ") << records_[i];
    os << "\n  ]\n}\n";
    logInfo("bench", "wrote ", path);
}

void
Harness::banner(const std::string &title) const
{
    analysis::banner(std::cout, title);
    std::cout << "[workloads: GAP Kronecker -g " << scale_.graphScale
              << " -k " << scale_.edgeFactor << ", synthetic iterations "
              << scale_.iterations
              << "; override with MSSR_SCALE / MSSR_ITERS]\n";
}

BatchJob
Harness::job(ServeJobSpec spec)
{
    spec.scale = scale_.graphScale;
    spec.iters = scale_.iterations;
    spec.seed = scale_.seed;
    const bool sampled = spec.samplePeriod != 0;
    if (!sampled)
        spec.fastForward = fastForward_;
    if (spec.name.empty())
        spec.name = spec.workload;
    if (const std::string why = validateJobSpec(spec); !why.empty()) {
        std::cerr << benchName_ << ": " << why << "\n";
        std::exit(2);
    }
    auto it = programs_.find(spec.workload);
    if (it == programs_.end())
        it = programs_
                 .emplace(spec.workload,
                          workloads::buildWorkload(spec.workload,
                                                   specScale(spec)))
                 .first;
    BatchJob j{spec.name, &it->second, specConfig(spec), {}};
    j.config.profiling = profile_ && !sampled;
    return j;
}

std::vector<RunResult>
Harness::runBaselines(const std::vector<std::string> &names)
{
    std::vector<BatchJob> jobs;
    for (const auto &name : names)
        jobs.push_back(job(baselineJobSpec(
            {.name = "baseline/" + name, .workload = name})));
    return runBatch(jobs);
}

std::vector<RunResult>
Harness::runBatch(const std::vector<BatchJob> &jobs)
{
    const auto start = Clock::now();
    std::vector<RunResult> results = runner_.run(jobs);
    wallSeconds_ += secondsSince(start);
    jobs_ += jobs.size();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        records_.push_back(benchResultRecord(jobs[i].name, results[i]));
    return results;
}

std::vector<Harness::SampledPoint>
Harness::runSampled(const std::vector<BatchJob> &jobs)
{
    std::vector<BatchJob> full = jobs;
    for (BatchJob &j : full)
        j.config.samplePeriod = j.config.sampleWindow = 0;
    const auto start = Clock::now();
    std::vector<RunResult> fullResults = runner_.run(full);
    std::vector<SampledRunResult> sampled = runner_.runSampled(jobs);
    wallSeconds_ += secondsSince(start);
    jobs_ += full.size() + jobs.size();

    std::vector<SampledPoint> points;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        points.push_back(
            {std::move(fullResults[i]), std::move(sampled[i])});
        records_.push_back(sampledAccuracyRecord(
            jobs[i].name, points[i].full, points[i].sampled));
    }
    if (!jobs.empty()) {
        samplePeriod_ = jobs.front().config.samplePeriod;
        sampleWindow_ = jobs.front().config.sampleWindow;
    }
    return points;
}

const RunResult *
printGains(const std::vector<std::string> &names,
           const std::vector<std::string> &labels, const RunResult *bases,
           const RunResult *points, bool baseIpc, bool average)
{
    std::vector<std::string> headers = {"Benchmark"}, avg = {"average"};
    if (baseIpc) {
        headers.push_back("base IPC");
        avg.push_back("");
    }
    headers.insert(headers.end(), labels.begin(), labels.end());
    analysis::Table table(headers);
    std::vector<double> sums(labels.size(), 0.0);
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::vector<std::string> row = {names[i]};
        if (baseIpc)
            row.push_back(analysis::fixed(bases[i].ipc, 3));
        for (double &sum : sums) {
            const double gain = (points++)->ipcImprovementOver(bases[i]);
            sum += gain;
            row.push_back(analysis::percent(gain));
        }
        table.addRow(row);
    }
    for (double sum : sums)
        avg.push_back(analysis::percent(sum / names.size()));
    if (average)
        table.addRow(avg);
    table.print(std::cout);
    return points;
}

} // namespace mssr::bench
