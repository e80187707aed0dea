#include "bench_common.hh"

#include <chrono>
#include <cstdlib>
#include <fstream>

#include "common/argparse.hh"
#include "common/build_info.hh"
#include "common/frame.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "driver/job_record.hh"

namespace mssr::bench
{

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

WorkloadSet::WorkloadSet(const std::vector<std::string> &names)
    : scale_(workloads::WorkloadScale::fromEnv())
{
    for (const auto &name : names)
        if (programs_.emplace(name, isa::Program{}).second)
            names_.push_back(name);

    // Fill the pre-inserted slots in parallel: the map is not mutated
    // after this point, and each task writes a distinct value.
    ThreadPool pool(BatchRunner::defaultThreads());
    for (const auto &name : names_) {
        pool.submit([this, &name] {
            programs_.at(name) = workloads::buildWorkload(name, scale_);
        });
    }
    pool.wait();
}

const isa::Program &
WorkloadSet::program(const std::string &name) const
{
    auto it = programs_.find(name);
    if (it == programs_.end())
        fatal("workload '", name, "' not in this WorkloadSet");
    return it->second;
}

const RunResult &
WorkloadSet::baseline(const std::string &name) const
{
    auto it = baselines_.find(name);
    if (it == baselines_.end())
        fatal("no pre-built baseline for '", name,
              "' (Harness constructed with Baselines::None?)");
    return it->second;
}

bool
WorkloadSet::hasBaseline(const std::string &name) const
{
    return baselines_.find(name) != baselines_.end();
}

void
WorkloadSet::storeBaseline(const std::string &name, RunResult result)
{
    baselines_[name] = std::move(result);
}

RunResult
WorkloadSet::run(const std::string &name, const SimConfig &cfg) const
{
    return runSim(program(name), cfg);
}

Harness::Harness(int argc, char **argv, std::string benchName,
                 const std::vector<std::string> &names,
                 Baselines baselines)
    : benchName_(std::move(benchName)), set_(names)
{
    json_ = jsonRequested(argc, argv);
    profile_ = envFlag("MSSR_PROFILE");
    fastForward_ = envU64("MSSR_FF", 0);
    runner_.setProgressEvery(
        static_cast<double>(envU64("MSSR_PROGRESS_EVERY", 0)));
    if (const char *s = std::getenv("MSSR_METRICS_OUT"))
        runner_.setMetricsOut(s);
    runner_.setProgressLabel(benchName_);

    if (baselines == Baselines::Build) {
        std::vector<BatchJob> jobs;
        for (const auto &name : set_.names())
            jobs.push_back(job("baseline/" + name, name, baselineConfig()));
        std::vector<RunResult> results = runBatch(jobs);
        for (std::size_t i = 0; i < results.size(); ++i)
            set_.storeBaseline(set_.names()[i], std::move(results[i]));
    }
}

Harness::~Harness()
{
    logInfo("bench", "batch: ", records_.size(), " jobs on ", threads(),
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
    os << "  \"threads\": " << threads() << ",\n";
    os << "  \"build_info\": " << buildInfoJson() << ",\n";
    os << "  \"jobs\": " << records_.size() << ",\n";
    os << "  \"wall_sec\": " << wallSeconds_ << ",\n";
    os << "  \"results\": [";
    for (std::size_t i = 0; i < records_.size(); ++i)
        os << (i ? ",\n    " : "\n    ") << records_[i];
    os << "\n  ]\n}\n";
    logInfo("bench", "wrote ", path);
}

BatchJob
Harness::job(const std::string &label, const std::string &workload,
             const SimConfig &cfg) const
{
    BatchJob j;
    j.name = label;
    j.program = &set_.program(workload);
    j.config = cfg;
    if (profile_)
        j.config.profiling = true;
    if (fastForward_ != 0)
        j.config.fastForwardInsts = fastForward_;
    return j;
}

std::vector<RunResult>
Harness::runBatch(const std::vector<BatchJob> &jobs)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<RunResult> results = runner_.run(jobs);
    wallSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        records_.push_back(benchResultRecord(jobs[i].name, results[i]));
    return results;
}

} // namespace mssr::bench
