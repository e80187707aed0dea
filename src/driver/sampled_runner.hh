/**
 * @file
 * SMARTS-style sampled simulation on top of the batch engine: a
 * sampled run replaces one long detailed simulation with (a) one
 * cheap end-to-end functional scan that drops periodic checkpoints
 * (sim/sample_schedule.hh) and (b) a batch of short detailed windows,
 * one per checkpoint, fanned across the worker pool like any other
 * BatchJobs. Each window's IPC, per-category CPI contribution and
 * reuse rate is one observation of the program's population of
 * windows; the aggregation reports the sample mean, standard error
 * and 95% confidence half-width (Student-t for small window counts)
 * per metric, alongside the exact pooled totals over the simulated
 * windows.
 *
 * Determinism contract: the windows are merged in window order on the
 * calling thread, so a sampled result -- including every floating-
 * point estimate -- is byte-identical at any worker count, exactly
 * like BatchRunner::run.
 */

#ifndef MSSR_DRIVER_SAMPLED_RUNNER_HH
#define MSSR_DRIVER_SAMPLED_RUNNER_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "driver/batch_runner.hh"
#include "sim/sample_schedule.hh"

namespace mssr
{

/**
 * One population estimate: sample mean, standard error of the mean,
 * and the 95% confidence half-width mean +/- ci95. All NaN with no
 * observations; stdErr/ci95 NaN with a single observation (no spread
 * estimate exists -- formatters render NaN as "n/a", and 0.0 would
 * claim false certainty).
 */
struct SampleEstimate
{
    double mean = std::numeric_limits<double>::quiet_NaN();
    double stdErr = std::numeric_limits<double>::quiet_NaN();
    double ci95 = std::numeric_limits<double>::quiet_NaN();
    std::uint64_t n = 0; //!< observations the estimate is over

    /** True when @p value lies inside [mean - ci95, mean + ci95].
     *  False when the interval is undefined (n < 2). */
    bool
    covers(double value) const
    {
        return !std::isnan(ci95) && value >= mean - ci95 &&
               value <= mean + ci95;
    }
};

/** Mean/stderr/CI-95 of @p xs (two-pass, index order: deterministic). */
SampleEstimate estimateFrom(const std::vector<double> &xs);

/**
 * One {"n", "mean", "stderr", "ci95"} estimate object, at the stream's
 * precision, and its reader. NaN is not valid JSON, so each field
 * appears only once it is defined: "mean" needs one observation,
 * "stderr"/"ci95" need two. Absent fields read back as NaN (rendered
 * "n/a"); the reader throws minijson::FormatError on a missing or
 * mistyped key or on fields that do not match `n`.
 */
void writeJson(std::ostream &os, const SampleEstimate &e);
SampleEstimate readEstimate(const minijson::JsonValue &v);

/**
 * The sampled-mode exclusion matrix as a queryable predicate: returns
 * the empty string when @p job can run under runSampled(), else the
 * human-readable reason runSampled() would reject it with. Front ends
 * that must answer instead of die -- mssr_serve validates every
 * submitted job spec against this before accepting a batch -- call
 * this; runSampled() itself throws std::invalid_argument built from
 * the same text, so the two can never drift.
 */
std::string sampledJobError(const BatchJob &job);

/**
 * Two-sided 95% Student-t critical value for @p df degrees of
 * freedom (exact table through df = 30, then the standard 40/60/120
 * rows, then the normal 1.96). NaN for df = 0.
 */
double tCritical95(std::uint64_t df);

/** Result of one sampled simulation (one BatchJob under sampling). */
struct SampledRunResult
{
    std::uint64_t samplePeriod = 0;
    std::uint64_t sampleWindow = 0;
    std::uint64_t windows = 0;    //!< detailed windows simulated
    std::uint64_t totalInsts = 0; //!< functional end-to-end length
    bool halted = false;          //!< scan reached HALT (vs maxInsts)

    // Exact pooled totals over the simulated windows (not estimates):
    // cycles/insts sum the windows, ipc is the pooled ratio, and the
    // summed CPI stack / funnel keep their invariants (slots sum to
    // cycles x width; stage-wise sums of monotone funnels stay
    // monotone).
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    double ipc = 0.0;
    CpiStack cpi;
    ReuseFunnel funnel;
    unsigned dispatchWidth = 0;

    // Population estimates over the per-window observations.
    SampleEstimate ipcEst;
    /** Additive CPI contribution per category (slots/(width x insts)
     *  per window); windows that committed nothing are excluded. */
    std::array<SampleEstimate, NumCpiCats> cpiEst;
    /** reused/squashed per window; only windows that squashed at all
     *  observe a rate, so n can be smaller than windows. */
    SampleEstimate reuseRateEst;

    // Host-side attribution (non-deterministic, like RunResult's).
    double hostSeconds = 0.0;     //!< summed detailed-window wall time
    double scanHostSeconds = 0.0; //!< functional scan (schedule owner only)
    std::uint64_t scanDiskHits = 0; //!< store hits (schedule owner only)

    /** Per-window results and their instruction offsets, in window
     *  order (window i starts at offset i x samplePeriod). */
    std::vector<RunResult> windowResults;
    std::vector<std::uint64_t> windowOffsets;
};

} // namespace mssr

#endif // MSSR_DRIVER_SAMPLED_RUNNER_HH
