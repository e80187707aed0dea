/**
 * @file
 * Job records: the one module that writes a finished job's record --
 * mssr-stats-v1 and mssr-profile-v1 runs, the stats `.prom` text, the
 * Kanata header's job block, serve records and BENCH_batch.json
 * results, sampled_accuracy's included -- and reads it back, so one
 * place owns every key spelling, key order and record invariant
 * (docs/FORMATS.md). The output-side twin of driver/job_spec.hh. The
 * CPI stack, funnel, estimate and profile objects are written and
 * read beside their types. Readers fill the library's types and
 * reject a record that breaks its writer's shape or invariants with a
 * diagnostic, never an assertion.
 */

#ifndef MSSR_DRIVER_JOB_RECORD_HH
#define MSSR_DRIVER_JOB_RECORD_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/mini_json.hh"
#include "driver/job_spec.hh"
#include "driver/sampled_runner.hh"

namespace mssr
{

/** @name Writers: one run per result, in submission order, named
 *  after its job */
/// @{

/** mssr-stats-v1 of detailed runs; @p host_time adds the host fields. */
void writeStatsJson(std::ostream &os, const std::vector<BatchJob> &jobs,
                    const std::vector<RunResult> &results, bool host_time);
/** mssr-stats-v1 of sampled runs: pooled totals plus "sampling". */
void writeSampledStatsJson(std::ostream &os,
                           const std::vector<BatchJob> &jobs,
                           const std::vector<SampledRunResult> &results,
                           bool host_time);
/** mssr-stats-v1 of every window, one run "<job>#w<i>" per window. */
void writeSampledWindowsJson(std::ostream &os,
                             const std::vector<BatchJob> &jobs,
                             const std::vector<SampledRunResult> &results,
                             bool host_time);
void writeProfileJson(std::ostream &os, const std::vector<BatchJob> &jobs,
                      const std::vector<RunResult> &results);
/** The stats `.prom` text. */
void writeStatsProm(std::ostream &os, const std::vector<BatchJob> &jobs,
                    const std::vector<RunResult> &results);
/** The job block of @p job's mssr-pipeview-v1 header. */
std::string pipeviewMetaFields(const BatchJob &job);
/** A served job's one-line record: deterministic fields only. */
std::string serveResultRecord(const ServeJobSpec &spec, const RunResult &r);
std::string serveSampledRecord(const ServeJobSpec &spec,
                               const SampledRunResult &r);
/** A BENCH_batch.json result: the serve record's simulated fields,
 *  then the host fields and the five hottest branches. */
std::string benchResultRecord(const std::string &name, const RunResult &r);
/** The host speedup of sampling: @p full's host seconds over
 *  @p sampled's (detailed windows plus scan); 0 when the latter is 0. */
double samplingSpeedup(const RunResult &full, const SampledRunResult &sampled);
/** sampled_accuracy's BENCH_batch.json result: the full-detail run
 *  @p full beside its sampled twin @p sampled, at 17 digits. */
std::string sampledAccuracyRecord(const std::string &name,
                                  const RunResult &full,
                                  const SampledRunResult &sampled);
/// @}

/** One run read back from an mssr-stats-v1 file: the RunResult fields
 *  the run carries, plus what only the record holds. */
struct StatsRun : RunResult
{
    std::string name;
    std::string scheme;
    double ffKips = 0.0; //!< as written; 0 when absent
    /** A sampled run's "sampling" block; its totals are the run's. */
    std::optional<SampledRunResult> sampling;
};

/** One run read back from an mssr-profile-v1 file. */
struct ProfileRun
{
    std::string name;
    std::string scheme;
    unsigned width = 0;
    PcProfile profile;
};

/** @name Readers
 * The runs of a parsed record @p root read from @p file. They throw
 * minijson::FormatError "FILE: ..." when the file is not of their
 * schema, has no runs, or a run ("run 'NAME': ...") breaks its shape
 * or an invariant.
 */
/// @{
std::vector<StatsRun> readStatsRuns(const std::string &file,
                                    const minijson::JsonValue &root);
std::vector<ProfileRun> readProfileRuns(const std::string &file,
                                        const minijson::JsonValue &root);
/// @}

} // namespace mssr

#endif // MSSR_DRIVER_JOB_RECORD_HH
