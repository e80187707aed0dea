/**
 * @file
 * BatchRunner: parallel execution of independent simulation points.
 *
 * Every figure/table reproduction is a cross-product of (workload,
 * SimConfig) design points, each a fully independent, deterministic
 * runSim() call. BatchRunner fans a vector of such BatchJobs out over
 * a fixed-size ThreadPool and returns the results in submission
 * order, so every printed table is bit-identical to the sequential
 * run of the same jobs -- only wall-clock time changes.
 *
 * The worker count defaults to std::thread::hardware_concurrency()
 * and can be overridden with the MSSR_JOBS environment variable
 * (MSSR_JOBS=1 forces sequential execution in-thread, useful for
 * debugging and timing baselines).
 */

#ifndef MSSR_DRIVER_BATCH_RUNNER_HH
#define MSSR_DRIVER_BATCH_RUNNER_HH

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "driver/sim_runner.hh"

namespace mssr
{

struct SampledRunResult; // driver/sampled_runner.hh

/** One independent simulation point of a sweep. */
struct BatchJob
{
    std::string name;                     //!< label for reports/JSON
    const isa::Program *program = nullptr; //!< must outlive the batch
    SimConfig config;
    /**
     * Optional per-job core inspection, invoked on the worker thread
     * with the finished core (see runSim). Closures must only touch
     * job-local state; the batch provides no cross-job locking.
     */
    std::function<void(const O3Cpu &)> inspect;
};

/** Executes batches of BatchJobs across a worker pool. */
class BatchRunner
{
  public:
    /** @p threads 0 means defaultThreads(). */
    explicit BatchRunner(unsigned threads = 0);

    /** MSSR_JOBS override, else hardware_concurrency(), at least 1. */
    static unsigned defaultThreads();

    unsigned threads() const { return threads_; }

    /**
     * Enables the on-disk checkpoint layer: shared warm-up snapshots
     * are loaded from @p dir when a matching mssr-ckpt-v2 file exists
     * (load-on-hit) and written there after being computed
     * (save-on-miss). Files are keyed ck_<programHash>_ff<K>.ckpt; a
     * present-but-corrupt file raises SerializeError rather than
     * silently recomputing, so stale caches are surfaced, not masked.
     * Empty (the default) keeps the cache purely in-memory.
     */
    void setCheckpointDir(std::string dir) { ckptDir_ = std::move(dir); }

    /**
     * @name Live telemetry (host-side only; results stay byte-identical)
     * With a period > 0, run()/runSampled() start a heartbeat that
     * every @p seconds logs a one-line progress report (done/total,
     * ETA, aggregate kips). With a metrics path set, the global
     * MetricsRegistry snapshot is atomically rewritten there as a
     * Prometheus textfile on every heartbeat and once more at batch
     * completion (so the file exists even without a heartbeat).
     */
    /// @{
    void setProgressEvery(double seconds) { progressEvery_ = seconds; }
    double progressEvery() const { return progressEvery_; }
    void setMetricsOut(std::string path) { metricsOut_ = std::move(path); }
    /** Job-source tag shown in progress lines (default "batch"). */
    void setProgressLabel(std::string label)
    {
        progressLabel_ = std::move(label);
    }
    /// @}

    /**
     * Per-job completion hook, invoked on the worker thread once a
     * job's result is final: under run(), after the shared-warm-up
     * attribution (ckptHit, ffHostSeconds) -- the incremental-
     * streaming primitive behind mssr_serve. The callback receives
     * the job's submission index and its RunResult; it must be
     * thread-safe, and must not touch other jobs' results. Under
     * runSampled() it fires once per window, with the window's
     * job-major index (the jobs in submission order, then each job's
     * windows), whatever order the windows ran in. Cleared by passing
     * an empty function.
     */
    using JobDoneFn = std::function<void(std::size_t, const RunResult &)>;
    void setJobDone(JobDoneFn fn) { jobDone_ = std::move(fn); }

    /**
     * runSampled()'s per-job hook: fires once per sampled job, on the
     * worker that lands the job's last window, after the job's
     * windows are merged. Same contract as setJobDone otherwise.
     */
    using SampledJobDoneFn =
        std::function<void(std::size_t, const SampledRunResult &)>;
    void setSampledJobDone(SampledJobDoneFn fn)
    {
        sampledJobDone_ = std::move(fn);
    }

    /**
     * Cooperative drain: with a stop flag set, run() skips every job
     * that has not yet started once the flag reads true (skipped jobs
     * keep a default RunResult and fire no completion hook; in-flight
     * jobs always finish). Shared warm-ups and sampling scans not yet
     * taken are skipped too, and a sampled job with a skipped window
     * keeps a default SampledRunResult (windows == 0) and fires no
     * per-job hook. The caller owns the atomic and must keep it alive
     * for the run. This is how mssr_serve bounds SIGTERM-drain
     * latency to one job (or window) instead of one queue.
     */
    void setStopFlag(const std::atomic<bool> *stop) { stopFlag_ = stop; }

    /**
     * Runs all @p jobs and returns results in submission order.
     * A job that throws (bad config/program) aborts the batch: the
     * first exception is rethrown on the calling thread once all
     * in-flight jobs have drained.
     *
     * Shared warm-up: jobs whose configs fast-forward the same program
     * by the same instruction count (and do not already carry a
     * SimConfig::checkpoint) share one functional prefix, computed or
     * loaded from the checkpoint directory exactly once before the
     * detailed runs start. Results are byte-identical to per-job
     * fast-forwarding at any worker count; only wall-clock changes.
     * Attribution: the first job of each group reports the group's
     * prefix wall time in ffHostSeconds and ckptHit=false unless the
     * snapshot came from disk; the other members report ckptHit=true.
     */
    std::vector<RunResult> run(const std::vector<BatchJob> &jobs) const;

    /**
     * Runs every job in SMARTS-style sampled mode (SimConfig::
     * samplePeriod / sampleWindow must be set; see
     * driver/sampled_runner.hh). Per job: one functional scan drops a
     * checkpoint every samplePeriod instructions (through the
     * checkpoint directory when set, sharing the --ckpt-dir store),
     * and the sampleWindow-instruction detailed windows are fanned
     * across the pool alongside every other job's windows. When a
     * job's last window lands, that job alone is merged in window
     * order -- so sampled results, estimates included, are
     * byte-identical at any worker count -- and handed to the per-job
     * hook. Jobs sharing (program, period, maxInsts) share one scan;
     * the first such job carries the scan's wall time. Their windows
     * run window-major (window w of each such job back to back), and
     * those with equal core configurations start from one WarmState,
     * built once and copied into each core.
     *
     * Throws std::invalid_argument for configs that cannot be sampled
     * (zero/oversized window, fast-forward, a pipeview, profiling or
     * an inspect hook).
     */
    std::vector<SampledRunResult>
    runSampled(const std::vector<BatchJob> &jobs) const;

  private:
    /** True once the stop flag reads true. */
    bool
    stopped() const
    {
        return stopFlag_ && stopFlag_->load(std::memory_order_relaxed);
    }

    /**
     * run() into @p results, with the detailed runs started in
     * @p order (a permutation of the job indices) and, when @p warm is
     * set, job i's WarmState taken from @p warm(i). Each job that runs
     * completes once, on its worker, when its result is final: the
     * batch metrics, the completion hook, then @p landed(i).
     */
    void runInOrder(const std::vector<BatchJob> &jobs,
                    const std::vector<std::size_t> &order,
                    std::vector<RunResult> &results,
                    const std::function<WarmState(std::size_t)> &warm,
                    const std::function<void(std::size_t)> &landed) const;

    unsigned threads_;
    std::string ckptDir_;
    double progressEvery_ = 0.0;
    std::string metricsOut_;
    std::string progressLabel_ = "batch";
    JobDoneFn jobDone_;
    SampledJobDoneFn sampledJobDone_;
    const std::atomic<bool> *stopFlag_ = nullptr;
};

} // namespace mssr

#endif // MSSR_DRIVER_BATCH_RUNNER_HH
