/**
 * @file
 * Shared harness for the table/figure reproduction binaries. A bench
 * is its job list plus its table printer: it lists its design points
 * as ServeJobSpecs (driver/job_spec.hh), turns each into a BatchJob
 * with Harness::job(), runs them as batches -- a bench that compares
 * against the no-reuse baseline runs baselineJobSpec jobs first -- and
 * prints its tables from the results. The Harness is the one writer
 * of BENCH_batch.json: every result is rendered by driver/job_record
 * when its batch returns.
 *
 * Knobs (environment variables):
 *   MSSR_SCALE  log2 graph vertices for GAP (default 10; paper: 12)
 *   MSSR_ITERS  synthetic-kernel iterations (default 4000)
 *   MSSR_SEED   workload RNG seed
 *   MSSR_JOBS   batch worker threads (default: hardware concurrency)
 *   MSSR_JSON   1/true/empty (or --json passed): write BENCH_batch.json
 *   MSSR_PROFILE  enable the per-PC profiler on every detailed job;
 *               each BENCH_batch.json record then carries its hottest
 *               branches ("profile_top", sorted by recovery slots)
 *   MSSR_FF     fast-forward every detailed job's first K instructions
 *               on the functional emulator. Jobs sharing a workload
 *               share one warm-up snapshot (BatchRunner's checkpoint
 *               cache), so an N-config sweep pays the functional
 *               prefix once per workload; each BENCH_batch.json record
 *               carries its prefix length, checkpoint hit/miss,
 *               warm-up wall time and throughput ("ff_insts",
 *               "ckpt_hit", "ff_host_sec", "ff_kips")
 *   MSSR_SAMPLE_PERIOD / MSSR_SAMPLE_WINDOW  sampled-simulation
 *               checkpoint period and per-window detailed
 *               instruction count (consumed by sampled_accuracy,
 *               which compares sampled estimates against full-detail
 *               ground truth)
 *   MSSR_PROGRESS_EVERY  emit a one-line progress report (done/total,
 *               ETA, aggregate kips) every K seconds while a batch
 *               runs (0/unset disables)
 *   MSSR_METRICS_OUT  atomically rewrite this Prometheus textfile
 *               with the live metrics snapshot on every heartbeat and
 *               at batch completion
 *   MSSR_LOG / MSSR_LOG_OUT  structured-logger level
 *               (error|warn|info|debug) and JSONL sink (common/log.hh)
 *
 * All telemetry is host-side only: enabling any of it leaves every
 * simulated result byte-identical (ctest-enforced).
 *
 * Design points are executed by BatchRunner in submission order, so
 * every table printed to stdout is byte-identical to a sequential run
 * (MSSR_JOBS=1); only wall-clock time changes. Timing/telemetry goes
 * to stderr and BENCH_batch.json, never stdout.
 */

#ifndef MSSR_BENCH_COMMON_HH
#define MSSR_BENCH_COMMON_HH

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/report.hh"
#include "driver/job_spec.hh"

namespace mssr::bench
{

/**
 * Per-binary harness: scales and builds the jobs, runs them through
 * one BatchRunner, renders every executed job's BENCH_batch.json
 * result when its batch returns, and writes the file on request
 * (--json flag or MSSR_JSON environment variable).
 */
class Harness
{
  public:
    Harness(int argc, char **argv, std::string benchName);
    /** Writes BENCH_batch.json when it was requested. */
    ~Harness();
    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    /** Prints @p title's banner and the workload-scale line. */
    void banner(const std::string &title) const;

    /**
     * The job @p spec describes. Its scale, iterations and seed come
     * from the environment, and a detailed job also takes MSSR_FF's
     * prefix and MSSR_PROFILE's profiler (sampled jobs reject both).
     * The spec must validate; its workload's program is built here,
     * on the calling thread, once per workload, so batch workers only
     * read programs.
     */
    BatchJob job(ServeJobSpec spec);

    /** The no-reuse baseline of each workload of @p names, run as one
     *  batch of jobs named "baseline/<workload>". */
    std::vector<RunResult>
    runBaselines(const std::vector<std::string> &names);

    /**
     * Runs @p jobs through the worker pool; results come back in
     * submission order and are appended to the JSON log.
     */
    std::vector<RunResult> runBatch(const std::vector<BatchJob> &jobs);

    /** A sampled job's result beside its full-detail twin's. */
    struct SampledPoint
    {
        RunResult full;
        SampledRunResult sampled;
    };

    /**
     * Runs each sampled job of @p jobs in full detail (sampling off),
     * all as one batch, then sampled as a second. Each job's JSON
     * result pairs the two (sampledAccuracyRecord), and the file's
     * head names the jobs' shared sampling period and window.
     */
    std::vector<SampledPoint>
    runSampled(const std::vector<BatchJob> &jobs);

  private:
    std::string benchName_;
    bool json_ = false;
    bool profile_ = false;    //!< MSSR_PROFILE; per-PC profiler on jobs
    std::uint64_t fastForward_ = 0; //!< MSSR_FF; shared warm-up prefix
    workloads::WorkloadScale scale_;
    BatchRunner runner_;
    std::map<std::string, isa::Program> programs_; //!< by workload
    std::vector<std::string> records_; //!< rendered results
    std::size_t jobs_ = 0; //!< jobs run; a sampled point runs two
    std::uint64_t samplePeriod_ = 0, sampleWindow_ = 0; //!< runSampled's
    double wallSeconds_ = 0.0;
};

/**
 * Prints a row per workload of @p names: the IPC gain over its baseline
 * in @p bases of each design point of @p labels, read in label order
 * from @p points. @p baseIpc adds a column of baseline IPCs, @p average
 * a row of column means. Returns the point after the last one read.
 */
const RunResult *printGains(const std::vector<std::string> &names,
                            const std::vector<std::string> &labels,
                            const RunResult *bases, const RunResult *points,
                            bool baseIpc, bool average);

} // namespace mssr::bench

#endif // MSSR_BENCH_COMMON_HH
