/**
 * @file
 * Job specs: the one description of a simulation job that every front
 * end shares. jobKeys() lists each knob once -- its mssr-serve-v1 JSON
 * key, its mssr_run flag, the ServeJobSpec member it sets and the
 * values it admits -- and that table drives the JSON parser, the
 * canonical (journal) serializer and mssr_run's simulation flags.
 * specConfig() and specScale() are the only mapping from a spec to
 * the SimConfig and WorkloadScale a job runs under, so a command line
 * and the equivalent served job simulate the same machine.
 *
 * Adding a knob: one jobKeys() row plus one specConfig() line.
 * docs/FORMATS.md section "mssr-serve-v1" is the normative key list.
 */

#ifndef MSSR_DRIVER_JOB_SPEC_HH
#define MSSR_DRIVER_JOB_SPEC_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <variant>

#include "common/config.hh"
#include "common/mini_json.hh"
#include "driver/sampled_runner.hh"
#include "workloads/registry.hh"

namespace mssr
{

/**
 * One simulation job. Field spellings follow the wire spec
 * (docs/FORMATS.md): snake_case keys, zeros meaning "registry default"
 * for the scale knobs and "default"/"off" for the rest.
 */
struct ServeJobSpec
{
    std::string name;               //!< defaults to the workload name
    std::string workload;           //!< required; workloads::isWorkload
    std::string scheme = "rgid";    //!< none | rgid | regint
    std::string predictor = "tage"; //!< tage | gshare | bimodal
    std::string funcTier = "fast";  //!< fast | interp
    unsigned scale = 0;             //!< graph scale (0 = default 10)
    unsigned iters = 0;             //!< kernel iterations (0 = default 4000)
    std::uint64_t seed = 42;
    unsigned streams = 0;           //!< reuse streams (0 = default)
    unsigned entries = 0;           //!< squash-log entries/stream (0 = dflt)
    unsigned sets = 0, ways = 0;    //!< RegInt table shape (0 = default)
    bool bloom = false;
    bool warmBpu = false;
    std::uint64_t maxInsts = 0;
    std::uint64_t fastForward = 0;
    std::uint64_t samplePeriod = 0;
    std::uint64_t sampleWindow = 0;
};

/**
 * One job key. An integer key's JSON value 0 means "default" or "off";
 * any other value must lie in [flagMin, max] and be a power of two
 * when pow2 is set. The flag takes no 0 unless flagMin is 0.
 */
struct JobKey
{
    /** The member the key sets; its type is the key's type. */
    using Member = std::variant<std::string ServeJobSpec::*,
                                unsigned ServeJobSpec::*,
                                std::uint64_t ServeJobSpec::*,
                                bool ServeJobSpec::*>;

    const char *json;              //!< job-spec JSON key
    const char *flag;              //!< mssr_run flag, nullptr if none
    Member member;
    const char *choices = nullptr; //!< string values "a|b|c"; null = any
    std::uint64_t flagMin = 0;     //!< smallest value the flag takes
    std::uint64_t max = 0;         //!< largest value; 0 = member's range
    bool pow2 = false;             //!< nonzero values: powers of two
};

/** Every job key, in canonical (journal) order. */
std::span<const JobKey> jobKeys();

/**
 * If @p flag is a job key's mssr_run flag, sets that key on @p s from
 * the flag's value (@p next; boolean keys are bare flags) and returns
 * true; returns false for any other flag. A bad value throws
 * std::invalid_argument("invalid value 'V' for FLAG (why)").
 */
bool parseJobFlag(ServeJobSpec &s, const std::string &flag,
                  const std::function<std::string()> &next);

/**
 * Parses one job-spec JSON object. Strict: unknown keys, wrong types
 * and out-of-range values all throw std::invalid_argument with a
 * message naming the key (ServeCore turns it into an `invalid_job`
 * reply).
 */
ServeJobSpec parseJobSpec(const minijson::JsonValue &v);

/** @p v as a non-negative integer exactly representable in a double;
 *  throws std::invalid_argument naming field @p key otherwise. */
std::uint64_t jsonU64(const std::string &key, const minijson::JsonValue &v);

/**
 * The spec's canonical one-line JSON serialization: every key, in
 * jobKeys() order, defaults resolved -- what the journal stores and
 * what two equal specs serialize identically to.
 */
std::string canonicalJobSpec(const ServeJobSpec &s);

/**
 * The no-reuse baseline of @p s (mssr_run --compare): the same job
 * with scheme "none" and the reuse geometry (streams, entries, sets,
 * ways, bloom) at its defaults. Every other knob is inherited.
 */
ServeJobSpec baselineJobSpec(ServeJobSpec s);

/** The SimConfig a spec runs under (scheme/predictor/knobs applied). */
SimConfig specConfig(const ServeJobSpec &s);

/** The workload scale a spec's program is built at. Spec-complete:
 *  deliberately independent of the MSSR_SCALE/MSSR_ITERS environment,
 *  so a job spec alone determines the simulated program. */
workloads::WorkloadScale specScale(const ServeJobSpec &s);

/**
 * Semantic validation beyond the per-key checks: buildWorkload() must
 * know the workload, warm_bpu needs a fast-forward prefix, and sampled
 * specs must clear the sampled-mode exclusion matrix
 * (sampledJobError). Returns "" or the reason.
 */
std::string validateJobSpec(const ServeJobSpec &s);

/** One-line deterministic result record for a completed detailed job
 *  (BENCH_batch.json field spellings, host-side fields omitted). */
std::string serveResultRecord(const ServeJobSpec &spec, const RunResult &r);

/** The sampled-job counterpart: pooled totals plus the population
 *  estimates, deterministic fields only. */
std::string serveSampledRecord(const ServeJobSpec &spec,
                               const SampledRunResult &r);

} // namespace mssr

#endif // MSSR_DRIVER_JOB_SPEC_HH
