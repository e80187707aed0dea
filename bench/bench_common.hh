/**
 * @file
 * Shared harness for the table/figure reproduction binaries: workload
 * scaling from the environment, eager program/baseline construction,
 * parallel batch submission through BatchRunner, and the machine-
 * readable JSON perf log.
 *
 * Knobs (environment variables):
 *   MSSR_SCALE  log2 graph vertices for GAP (default 10; paper: 12)
 *   MSSR_ITERS  synthetic-kernel iterations (default 4000)
 *   MSSR_SEED   workload RNG seed
 *   MSSR_JOBS   batch worker threads (default: hardware concurrency)
 *   MSSR_JSON   1/true/empty (or --json passed): write BENCH_batch.json
 *   MSSR_INTERVAL  sample interval stats every K cycles; the samples
 *               are carried on every record of BENCH_batch.json
 *   MSSR_PROFILE  enable the per-PC profiler on every job; each
 *               BENCH_batch.json record then carries its hottest
 *               branches ("profile_top", sorted by recovery slots)
 *   MSSR_FF     fast-forward every job's first K instructions on the
 *               functional emulator. Jobs sharing a workload share one
 *               warm-up snapshot (BatchRunner's checkpoint cache), so
 *               an N-config sweep pays the functional prefix once per
 *               workload; each BENCH_batch.json record carries its
 *               prefix length, checkpoint hit/miss, warm-up wall
 *               time and throughput ("ff_insts", "ckpt_hit",
 *               "ff_host_sec", "ff_kips")
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
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/report.hh"
#include "driver/batch_runner.hh"
#include "driver/sim_runner.hh"
#include "workloads/registry.hh"

namespace mssr::bench
{

/**
 * Whether to write BENCH_batch.json: --json on the command line, or
 * MSSR_JSON. MSSR_JSON predates the boolean contract: an empty value
 * still means "on" (legacy presence semantics); any other value
 * follows the strict 0/1/true/false contract.
 */
bool jsonRequested(int argc, char **argv);

/**
 * Pre-built, thread-safe workload container.
 *
 * The seed version of this class built programs and baselines lazily
 * behind non-const accessors (std::map + fill-on-miss), which was
 * unsafe to share across batch worker threads: two workers missing on
 * the same name would race on the map insert. All programs are now
 * built eagerly (in parallel) at construction and every accessor is
 * const, so a WorkloadSet can be captured freely by concurrent jobs.
 */
class WorkloadSet
{
  public:
    /** Builds programs for @p names up front, in parallel. */
    explicit WorkloadSet(const std::vector<std::string> &names =
                             workloads::registeredWorkloads());

    const isa::Program &program(const std::string &name) const;

    /** Pre-computed no-reuse baseline (fatal if not built). */
    const RunResult &baseline(const std::string &name) const;
    bool hasBaseline(const std::string &name) const;
    void storeBaseline(const std::string &name, RunResult result);

    /** Runs one off-batch design point in the calling thread. */
    RunResult run(const std::string &name, const SimConfig &cfg) const;

    const std::vector<std::string> &names() const { return names_; }
    const workloads::WorkloadScale &scale() const { return scale_; }

  private:
    workloads::WorkloadScale scale_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, isa::Program> programs_;
    std::unordered_map<std::string, RunResult> baselines_;
};

/** Whether a Harness should pre-run no-reuse baselines. */
enum class Baselines { None, Build };

/**
 * Per-binary harness: owns the WorkloadSet and the BatchRunner,
 * renders every executed job's BENCH_batch.json result when its batch
 * returns (driver/job_record.hh), and writes the file on request
 * (--json flag or MSSR_JSON environment variable).
 */
class Harness
{
  public:
    Harness(int argc, char **argv, std::string benchName,
            const std::vector<std::string> &names, Baselines baselines);
    ~Harness();

    WorkloadSet &set() { return set_; }
    const WorkloadSet &set() const { return set_; }
    const workloads::WorkloadScale &scale() const { return set_.scale(); }
    unsigned threads() const { return runner_.threads(); }

    /** Builds a job for a named workload of this set. */
    BatchJob job(const std::string &label, const std::string &workload,
                 const SimConfig &cfg) const;

    /**
     * Runs @p jobs through the worker pool; results come back in
     * submission order and are appended to the JSON log.
     */
    std::vector<RunResult> runBatch(const std::vector<BatchJob> &jobs);

  private:
    std::string benchName_;
    bool json_ = false;
    Cycle statsInterval_ = 0; //!< MSSR_INTERVAL; 0 disables sampling
    bool profile_ = false;    //!< MSSR_PROFILE; per-PC profiler on jobs
    std::uint64_t fastForward_ = 0; //!< MSSR_FF; shared warm-up prefix
    BatchRunner runner_;
    WorkloadSet set_;
    std::vector<std::string> records_; //!< rendered results
    double wallSeconds_ = 0.0;
};

/** Prints the workload-scale banner so outputs are self-describing. */
inline void
printScale(const WorkloadSet &set)
{
    std::cout << "[workloads: GAP Kronecker -g "
              << set.scale().graphScale << " -k "
              << set.scale().edgeFactor << ", synthetic iterations "
              << set.scale().iterations
              << "; override with MSSR_SCALE / MSSR_ITERS]\n";
}

} // namespace mssr::bench

#endif // MSSR_BENCH_COMMON_HH
