#include "driver/batch_runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/argparse.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"

namespace mssr
{

namespace
{

/** Lazily-registered batch instrumentation; the checkpoint-store
 *  families register beside it (sim/checkpoint.hh). */
struct BatchMetrics
{
    Counter &jobsTotal;
    Counter &jobsDone;
    Counter &insts;
    Counter &ckptHits;
    Gauge &jobsRunning;
    HistogramMetric &jobSeconds;

    static BatchMetrics &
    get()
    {
        MetricsRegistry &reg = MetricsRegistry::global();
        registerCheckpointStoreMetrics();
        static BatchMetrics m{
            reg.counter("mssr_batch_jobs_total",
                        "Simulation jobs queued into batches"),
            reg.counter("mssr_batch_jobs_done_total",
                        "Simulation jobs completed"),
            reg.counter("mssr_batch_insts_total",
                        "Instructions committed in detailed simulation"),
            reg.counter("mssr_batch_ckpt_hits_total",
                        "Completed jobs whose warm-up came from a "
                        "pre-computed checkpoint"),
            reg.gauge("mssr_batch_jobs_running",
                      "Jobs currently in detailed simulation"),
            reg.histogram("mssr_job_host_seconds",
                          "Per-job detailed-simulation wall time"),
        };
        return m;
    }
};

} // namespace

BatchRunner::BatchRunner(unsigned threads)
    : threads_(threads ? threads : defaultThreads())
{
}

unsigned
BatchRunner::defaultThreads()
{
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    if (const char *s = std::getenv("MSSR_JOBS")) {
        // Strict parse: the whole value must be a positive decimal
        // ("4x", "0", "-2", " 3" or "" fall back loudly instead of
        // running at a surprising width).
        const std::optional<std::uint64_t> v = parseU64(s);
        if (v && *v >= 1 && *v <= 1024)
            return static_cast<unsigned>(*v);
        warn("ignoring invalid MSSR_JOBS='", s, "' (want 1..1024); using ",
             hw, " thread(s)");
    }
    return hw;
}

namespace
{

/** One distinct (program, fast-forward length) shared warm-up. */
struct PrefixGroup
{
    const isa::Program *program = nullptr;
    std::uint64_t ffInsts = 0;
    FuncTier tier = FuncTier::Fast; //!< first member's functional tier
    std::vector<std::size_t> jobIdx; //!< batch indices sharing it
    Checkpoint ckpt;
    bool diskHit = false;            //!< loaded from the checkpoint dir
    double hostSeconds = 0.0;        //!< wall-clock of compute-or-load
};

} // namespace

std::vector<RunResult>
BatchRunner::run(const std::vector<BatchJob> &jobs) const
{
    std::vector<RunResult> results(jobs.size());
    if (jobs.empty())
        return results;

    // Telemetry is observational only: every counter bump and
    // progress line happens outside the simulated machine, so results
    // are byte-identical with it on or off (ctest-enforced).
    BatchMetrics &metrics = BatchMetrics::get();
    metrics.jobsTotal.inc(jobs.size());
    std::optional<ProgressReporter> progress;
    if (progressEvery_ > 0.0 || !metricsOut_.empty()) {
        ProgressOptions opts;
        opts.everySeconds = progressEvery_;
        opts.metricsPath = metricsOut_;
        opts.label = progressLabel_;
        opts.totalJobs = jobs.size();
        progress.emplace(std::move(opts));
    }

    // Phase 0 -- shared warm-up. Group jobs that fast-forward the same
    // program by the same instruction count (and don't already carry a
    // snapshot), then take each group's functional prefix exactly
    // once, before any detailed run starts. Runs on the calling thread:
    // prefix emulation is orders of magnitude cheaper than detailed
    // simulation and a phase-0 error (corrupt checkpoint file) should
    // surface before any simulation work is spent.
    std::vector<SimConfig> configs(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        configs[i] = jobs[i].config;

    std::map<std::pair<const isa::Program *, std::uint64_t>, std::size_t>
        groupOf;
    std::deque<PrefixGroup> groups; // deque: &g.ckpt stays stable
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (configs[i].fastForwardInsts == 0 || configs[i].checkpoint)
            continue;
        const auto key =
            std::make_pair(jobs[i].program, configs[i].fastForwardInsts);
        const auto [it, fresh] = groupOf.try_emplace(key, groups.size());
        if (fresh) {
            groups.emplace_back();
            groups.back().program = jobs[i].program;
            groups.back().ffInsts = configs[i].fastForwardInsts;
            groups.back().tier = configs[i].funcTier;
        }
        groups[it->second].jobIdx.push_back(i);
    }
    const auto stopped = [this] {
        return stopFlag_ && stopFlag_->load(std::memory_order_relaxed);
    };
    for (PrefixGroup &g : groups) {
        if (stopped())
            break; // draining: the group's jobs will be skipped too
        const auto t0 = std::chrono::steady_clock::now();
        std::optional<Checkpoint> stored;
        if (!ckptDir_.empty())
            stored =
                loadStoredCheckpoint(ckptDir_, g.program->hash(), g.ffInsts);
        g.diskHit = stored.has_value();
        if (stored) {
            g.ckpt = std::move(*stored);
        } else {
            g.ckpt = computeCheckpoint(*g.program, g.ffInsts, g.tier);
            if (!ckptDir_.empty())
                saveStoredCheckpoint(ckptDir_, g.ckpt);
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - t0;
        g.hostSeconds = elapsed.count();
        for (const std::size_t i : g.jobIdx)
            configs[i].checkpoint = &g.ckpt;
    }

    // Phase 1 -- the detailed runs.
    // Sequential fast path: no pool, no synchronization. Results are
    // identical either way; this is the timing baseline.
    std::vector<std::uint8_t> ran(jobs.size(), 0);
    const auto runOne = [&](std::size_t i) {
        if (stopped())
            return; // drained before start: default result, no hook
        metrics.jobsRunning.add(1);
        try {
            results[i] = runSim(*jobs[i].program, configs[i], nullptr,
                                jobs[i].inspect);
        } catch (...) {
            metrics.jobsRunning.sub(1);
            throw;
        }
        ran[i] = 1;
        metrics.jobsRunning.sub(1);
        metrics.jobsDone.inc();
        metrics.insts.inc(results[i].insts);
        metrics.jobSeconds.observe(results[i].hostSeconds);
        if (jobDone_)
            jobDone_(i, results[i]);
    };
    if (threads_ == 1 || jobs.size() == 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            runOne(i);
    } else {
        std::exception_ptr firstError;
        std::mutex errorMutex;
        {
            ThreadPool pool(std::min<std::size_t>(threads_, jobs.size()));
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                pool.submit([&, i] {
                    try {
                        runOne(i);
                    } catch (...) {
                        std::lock_guard<std::mutex> lock(errorMutex);
                        if (!firstError)
                            firstError = std::current_exception();
                    }
                });
            }
            pool.wait();
        }
        if (firstError)
            std::rethrow_exception(firstError);
    }

    // Attribution: runSim reported every grouped job as a checkpoint
    // hit (each received a pre-computed snapshot). The group's first
    // job is the one that actually paid for the prefix, so it carries
    // the group's compute-or-load wall time and the real disk-cache
    // hit/miss status; the other members stay hits.
    for (const PrefixGroup &g : groups) {
        if (!ran[g.jobIdx.front()])
            continue; // owner skipped by a drain: nothing to attribute
        RunResult &owner = results[g.jobIdx.front()];
        owner.ckptHit = g.diskHit;
        owner.ffHostSeconds = g.hostSeconds;
    }
    // Count checkpoint hits only after attribution so the counter
    // reconciles exactly with the ckpt_hit flags downstream consumers
    // (BENCH_batch.json) will see.
    std::uint64_t hits = 0;
    for (const RunResult &r : results)
        hits += r.ckptHit ? 1 : 0;
    metrics.ckptHits.inc(hits);
    if (progress)
        progress->finish(); // final progress line + final textfile
    return results;
}

} // namespace mssr
