#include "driver/job_record.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/build_info.hh"
#include "common/frame.hh"
#include "common/pipeview.hh"

namespace mssr
{

namespace
{

using minijson::field;
using minijson::FormatError;
using minijson::JsonValue;
using minijson::u64Field;

// ------------------------------------------------------------ writers

/** The mssr-stats-v1 file head, up to the opening of "runs". */
void
statsHead(std::ostream &os)
{
    os.precision(17); // counters round-trip exactly through stod
    os << "{\n  \"schema\": \"mssr-stats-v1\",\n  \"build_info\": "
       << buildInfoJson() << ",\n";
    os << "  \"runs\": [";
}

constexpr const char *StatsTail = "\n  ]\n}\n";

/** A stats-v1 run's identity and instruction counts. */
void
runHead(std::ostream &os, bool first, const std::string &name,
        ReuseKind scheme, unsigned width, Cycle cycles,
        std::uint64_t insts, std::uint64_t ff_insts)
{
    os << (first ? "\n    " : ",\n    ") << "{\"name\": \""
       << jsonEscape(name) << "\", \"scheme\": \"" << toString(scheme)
       << "\", \"dispatch_width\": " << width << ", \"cycles\": " << cycles
       << ", \"insts\": " << insts << ", \"ff_insts\": " << ff_insts;
}

/** A stats-v1 run's IPC, CPI stack and funnel. */
void
runCounters(std::ostream &os, double ipc, const CpiStack &cpi,
            const ReuseFunnel &funnel)
{
    os << ", \"ipc\": " << ipc << ", \"cpi_slots\": ";
    writeJson(os, cpi);
    os << ", \"funnel\": ";
    writeJson(os, funnel);
}

/** A sampled run's design point and scan length, as both the stats
 *  "sampling" block and the serve record spell them. */
void
samplingFields(std::ostream &os, const SampledRunResult &r)
{
    os << "\"sample_period\": " << r.samplePeriod
       << ", \"sample_window\": " << r.sampleWindow
       << ", \"windows\": " << r.windows
       << ", \"total_insts\": " << r.totalInsts
       << ", \"halted\": " << (r.halted ? "true" : "false");
}

/** One detailed stats-v1 run. */
void
statsRun(std::ostream &os, bool first, const std::string &name,
         const SimConfig &cfg, const RunResult &r, bool host_time)
{
    runHead(os, first, name, cfg.reuseKind, r.dispatchWidth, r.cycles,
            r.insts, r.ffInsts);
    // Trace events the run's traces leave out: a stats consumer can
    // tell how complete the companion --trace-out file is.
    if (cfg.pipeview && cfg.pipeview->feeds().trace)
        os << ", \"dropped_events\": " << cfg.pipeview->dropped();
    if (host_time) {
        // Opt-in: host-side numbers vary run to run, so default stats
        // files stay byte-identical across hosts and repeats (the
        // documented determinism contract).
        os << ", \"ff_host_sec\": " << r.ffHostSeconds
           << ", \"ff_kips\": " << kipsOf(r.ffInsts, r.ffHostSeconds)
           << ", \"host_phases\": {\"warm\": " << r.phases.warm
           << ", \"build\": " << r.phases.build
           << ", \"detail\": " << r.phases.detail
           << ", \"serialize\": " << r.phases.serialize << "}"
           << ", \"peak_rss_kb\": " << r.peakRssKb;
    }
    runCounters(os, r.ipc, r.cpi, r.funnel);
    os << ", \"stats\": {";
    bool firstStat = true;
    for (const auto &[key, value] : r.stats.scalars()) {
        os << (firstStat ? "" : ", ") << "\"" << jsonEscape(key)
           << "\": " << value;
        firstStat = false;
    }
    os << "}}";
}

/** @p s as a Prometheus label value: backslash, double quote and
 *  newline escaped. */
std::string
promLabel(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '\\' || c == '"')
            out += '\\';
        if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/** The simulated fields a serve record and a bench result share. */
void
resultFields(std::ostream &os, const RunResult &r)
{
    os << "\"cycles\": " << r.cycles << ", \"insts\": " << r.insts
       << ", \"ipc\": " << r.ipc << ", \"dispatch_width\": "
       << r.dispatchWidth << ", \"ff_insts\": " << r.ffInsts
       << ", \"cpi\": ";
    writeJson(os, r.cpi);
    os << ", \"funnel\": ";
    writeJson(os, r.funnel);
}

// ------------------------------------------------------------ readers

SampledRunResult
readSampling(const JsonValue &v)
{
    SampledRunResult s;
    s.samplePeriod = u64Field(v, "sample_period");
    s.sampleWindow = u64Field(v, "sample_window");
    s.windows = u64Field(v, "windows");
    s.totalInsts = u64Field(v, "total_insts");
    s.halted = field(v, "halted", JsonValue::Bool).number != 0.0;
    const JsonValue &ests = field(v, "estimates", JsonValue::Object);
    s.ipcEst = readEstimate(field(ests, "ipc", JsonValue::Object));
    s.reuseRateEst =
        readEstimate(field(ests, "reuse_rate", JsonValue::Object));
    for (std::size_t c = 0; c < NumCpiCats; ++c) {
        const std::string key =
            std::string("cpi_") + cpiCatKey(static_cast<CpiCat>(c));
        s.cpiEst[c] = readEstimate(field(ests, key, JsonValue::Object));
    }
    if (s.sampleWindow == 0 || s.sampleWindow > s.samplePeriod)
        throw FormatError("sampling window not in (0, period]");
    return s;
}

/** The stats-v1 fields of run @p v after its name and scheme. */
void
readStatsRun(const JsonValue &v, StatsRun &r)
{
    r.dispatchWidth = static_cast<unsigned>(u64Field(v, "dispatch_width"));
    r.cycles = u64Field(v, "cycles");
    r.insts = u64Field(v, "insts");
    r.ffInsts = u64Field(v, "ff_insts");
    r.ipc = field(v, "ipc", JsonValue::Number).number;
    // Written only under --stats-host-time.
    if (v.object.count("ff_host_sec"))
        r.ffHostSeconds = field(v, "ff_host_sec", JsonValue::Number).number;
    if (v.object.count("ff_kips"))
        r.ffKips = field(v, "ff_kips", JsonValue::Number).number;
    r.cpi = readCpiStack(field(v, "cpi_slots", JsonValue::Object), r.cycles,
                         r.dispatchWidth);
    r.funnel = readFunnel(field(v, "funnel", JsonValue::Object));
    for (const auto &[key, value] :
         field(v, "stats", JsonValue::Object).object) {
        if (value.kind != JsonValue::Number)
            throw FormatError("stats scalar '" + key + "' is not a number");
        r.stats.set(key, value.number);
    }
    if (v.object.count("sampling"))
        r.sampling = readSampling(field(v, "sampling", JsonValue::Object));
}

/**
 * The runs of @p root, which must be a @p schema file with one run or
 * more: each run's name and scheme, then the rest through @p readRest.
 * Diagnostics name the file, and the run once its name is read.
 */
template <typename Run, typename ReadRest>
std::vector<Run>
readRuns(const std::string &file, const JsonValue &root,
         const std::string &schema, const ReadRest &readRest)
{
    std::vector<Run> runs;
    std::string where = file;
    try {
        if (field(root, "schema", JsonValue::String).string != schema)
            throw FormatError("not an " + schema + " file");
        for (const JsonValue &v :
             field(root, "runs", JsonValue::Array).array) {
            if (v.kind != JsonValue::Object)
                throw FormatError("run entry is not an object");
            Run &run = runs.emplace_back();
            run.name = field(v, "name", JsonValue::String).string;
            where = file + ": run '" + run.name + "'";
            run.scheme = field(v, "scheme", JsonValue::String).string;
            readRest(v, run);
            where = file;
        }
        if (runs.empty())
            throw FormatError("no runs");
    } catch (const FormatError &e) {
        throw FormatError(where + ": " + e.what());
    }
    return runs;
}

} // namespace

void
writeStatsJson(std::ostream &os, const std::vector<BatchJob> &jobs,
               const std::vector<RunResult> &results, bool host_time)
{
    statsHead(os);
    for (std::size_t i = 0; i < results.size(); ++i)
        statsRun(os, i == 0, jobs[i].name, jobs[i].config, results[i],
                 host_time);
    os << StatsTail;
}

void
writeSampledStatsJson(std::ostream &os, const std::vector<BatchJob> &jobs,
                      const std::vector<SampledRunResult> &results,
                      bool host_time)
{
    // ff_insts reports the instructions NOT simulated in detail, so
    // insts + ff_insts == sampling.total_insts. The merged "stats" map
    // is empty: scalar counters mix rates and counts, so pooling them
    // blindly would be wrong. The scan's host time and store hits
    // depend on the host and the store, so like ff_host_sec they are
    // written only under host_time.
    statsHead(os);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SampledRunResult &r = results[i];
        runHead(os, i == 0, jobs[i].name, jobs[i].config.reuseKind,
                r.dispatchWidth, r.cycles, r.insts,
                r.totalInsts - r.insts);
        if (host_time)
            os << ", \"ff_host_sec\": " << r.scanHostSeconds
               << ", \"ff_kips\": "
               << kipsOf(r.totalInsts, r.scanHostSeconds);
        runCounters(os, r.ipc, r.cpi, r.funnel);
        os << ", \"stats\": {}, \"sampling\": {";
        samplingFields(os, r);
        if (host_time)
            os << ", \"scan_host_sec\": " << r.scanHostSeconds
               << ", \"scan_disk_hits\": " << r.scanDiskHits;
        os << ", \"estimates\": {\"ipc\": ";
        writeJson(os, r.ipcEst);
        os << ", \"reuse_rate\": ";
        writeJson(os, r.reuseRateEst);
        for (std::size_t c = 0; c < NumCpiCats; ++c) {
            os << ", \"cpi_" << cpiCatKey(static_cast<CpiCat>(c))
               << "\": ";
            writeJson(os, r.cpiEst[c]);
        }
        os << "}}}";
    }
    os << StatsTail;
}

void
writeSampledWindowsJson(std::ostream &os, const std::vector<BatchJob> &jobs,
                        const std::vector<SampledRunResult> &results,
                        bool host_time)
{
    // Window w's detailed region starts at instruction w x
    // sample_period; its own ff_insts records that offset.
    statsHead(os);
    bool first = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        for (std::size_t w = 0; w < results[i].windowResults.size(); ++w) {
            statsRun(os, first, jobs[i].name + "#w" + std::to_string(w),
                     jobs[i].config, results[i].windowResults[w],
                     host_time);
            first = false;
        }
    }
    os << StatsTail;
}

void
writeProfileJson(std::ostream &os, const std::vector<BatchJob> &jobs,
                 const std::vector<RunResult> &results)
{
    os << "{\n  \"schema\": \"mssr-profile-v1\",\n  \"runs\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << (i ? ",\n    " : "\n    ")
           << "{\"name\": \"" << jsonEscape(jobs[i].name)
           << "\", \"scheme\": \"" << toString(jobs[i].config.reuseKind)
           << "\", \"dispatch_width\": " << results[i].dispatchWidth
           << ", \"profile\": ";
        writeJson(os, results[i].profile);
        os << "}";
    }
    os << "\n  ]\n}\n";
}

void
writeStatsProm(std::ostream &os, const std::vector<BatchJob> &jobs,
               const std::vector<RunResult> &results)
{
    // The text exposition format: one TYPE line per family, then the
    // family's samples as one group, run by run.
    const auto family = [&](const char *name, const auto &samples) {
        os << "# TYPE " << name << " gauge\n";
        for (std::size_t i = 0; i < results.size(); ++i)
            samples(name + ("{run=\"" + promLabel(jobs[i].name) + "\""),
                    results[i]);
    };
    using Head = const std::string &;
    family("mssr_cycles", [&](Head head, const RunResult &r) {
        os << head << "} " << r.cycles << "\n";
    });
    family("mssr_insts", [&](Head head, const RunResult &r) {
        os << head << "} " << r.insts << "\n";
    });
    family("mssr_ipc", [&](Head head, const RunResult &r) {
        os << head << "} " << r.ipc << "\n";
    });
    family("mssr_cpi_slots", [&](Head head, const RunResult &r) {
        for (std::size_t c = 0; c < NumCpiCats; ++c)
            os << head << ",category=\""
               << cpiCatKey(static_cast<CpiCat>(c)) << "\"} "
               << r.cpi.slots[c] << "\n";
    });
    family("mssr_funnel_stage", [&](Head head, const RunResult &r) {
        for (std::size_t i = 0; i < ReuseFunnel::NumStages; ++i)
            os << head << ",stage=\"" << ReuseFunnel::stageKey(i) << "\"} "
               << r.funnel.stage(i) << "\n";
    });
    family("mssr_funnel_kills", [&](Head head, const RunResult &r) {
        const ReuseFunnel &f = r.funnel;
        const std::pair<const char *, std::uint64_t> kills[] = {
            {"kind", f.killKind},
            {"not_executed", f.killNotExecuted},
            {"rgid", f.killRgid},
            {"rgid_capacity", f.killRgidCapacity},
            {"bloom", f.killBloom},
            {"verify_fail", f.verifyFail},
        };
        for (const auto &[reason, count] : kills)
            os << head << ",reason=\"" << reason << "\"} " << count << "\n";
    });
}

std::string
pipeviewMetaFields(const BatchJob &job)
{
    std::ostringstream os;
    os << "\"build_info\": " << buildInfoJson()
       << ", \"config\": {\"name\": \"" << jsonEscape(job.name)
       << "\", \"scheme\": \"" << toString(job.config.reuseKind)
       << "\", \"streams\": " << job.config.reuse.numStreams
       << ", \"entries\": " << job.config.reuse.squashLogEntriesPerStream
       << ", \"dispatch_width\": " << job.config.core.decodeWidth << "}";
    return os.str();
}

std::string
serveResultRecord(const ServeJobSpec &spec, const RunResult &r)
{
    // Deterministic fields only: host times, kips and cache-hit flags
    // would break the submit-twice byte-identity the service
    // guarantees.
    std::ostringstream os;
    os << "{\"name\": \"" << jsonEscape(spec.name) << "\", \"scheme\": \""
       << spec.scheme << "\", ";
    resultFields(os, r);
    os << "}";
    return os.str();
}

std::string
serveSampledRecord(const ServeJobSpec &spec, const SampledRunResult &r)
{
    std::ostringstream os;
    os << "{\"name\": \"" << jsonEscape(spec.name) << "\", \"scheme\": \""
       << spec.scheme << "\", ";
    samplingFields(os, r);
    os << ", \"cycles\": " << r.cycles << ", \"insts\": " << r.insts
       << ", \"ipc\": " << r.ipc << ", \"dispatch_width\": "
       << r.dispatchWidth << ", \"cpi\": ";
    writeJson(os, r.cpi);
    os << ", \"funnel\": ";
    writeJson(os, r.funnel);
    os << ", \"ipc_est\": ";
    writeJson(os, r.ipcEst);
    os << ", \"reuse_rate_est\": ";
    writeJson(os, r.reuseRateEst);
    os << "}";
    return os.str();
}

std::string
benchResultRecord(const std::string &name, const RunResult &r)
{
    std::ostringstream os;
    os << "{\"name\": \"" << jsonEscape(name) << "\", ";
    resultFields(os, r);
    os << ", \"host_sec\": " << r.hostSeconds << ", \"kips\": " << r.kips
       << ", \"ckpt_hit\": " << (r.ckptHit ? "true" : "false")
       << ", \"ff_host_sec\": " << r.ffHostSeconds
       << ", \"ff_kips\": " << kipsOf(r.ffInsts, r.ffHostSeconds)
       << ", \"phase_warm_sec\": " << r.phases.warm
       << ", \"phase_build_sec\": " << r.phases.build
       << ", \"phase_detail_sec\": " << r.phases.detail
       << ", \"phase_serialize_sec\": " << r.phases.serialize
       << ", \"peak_rss_kb\": " << r.peakRssKb;
    // The five hottest branches by recovery slots, PC order on ties;
    // none when profiling was off.
    std::vector<const BranchRecord *> top = r.profile.branches().sortedByPc();
    std::stable_sort(top.begin(), top.end(),
                     [](const BranchRecord *a, const BranchRecord *b) {
                         return a->recoverySlots() > b->recoverySlots();
                     });
    top.resize(std::min<std::size_t>(top.size(), 5));
    os << ", \"profile_top\": [";
    bool first = true;
    for (const BranchRecord *b : top) {
        os << (first ? "" : ", ") << "{\"pc\": \"" << hexPc(b->pc)
           << "\", \"mispredicts\": " << b->mispredicts
           << ", \"squashed_insts\": " << b->squashedInsts
           << ", \"recovery_slots\": " << b->recoverySlots()
           << ", \"reused\": " << b->reused << "}";
        first = false;
    }
    os << "]}";
    return os.str();
}

double
samplingSpeedup(const RunResult &full, const SampledRunResult &sampled)
{
    const double sampledSec = sampled.hostSeconds + sampled.scanHostSeconds;
    return sampledSec > 0.0 ? full.hostSeconds / sampledSec : 0.0;
}

std::string
sampledAccuracyRecord(const std::string &name, const RunResult &full,
                      const SampledRunResult &sampled)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"name\": \"" << jsonEscape(name)
       << "\", \"full_ipc\": " << full.ipc
       << ", \"full_host_sec\": " << full.hostSeconds
       << ", \"sampled_ipc\": " << sampled.ipc
       << ", \"windows\": " << sampled.windows
       << ", \"total_insts\": " << sampled.totalInsts
       << ", \"detail_host_sec\": " << sampled.hostSeconds
       << ", \"scan_host_sec\": " << sampled.scanHostSeconds
       << ", \"speedup\": " << samplingSpeedup(full, sampled)
       << ", \"covered\": "
       << (sampled.ipcEst.covers(full.ipc) ? "true" : "false")
       << ", \"ipc_estimate\": ";
    writeJson(os, sampled.ipcEst);
    os << "}";
    return os.str();
}

std::vector<StatsRun>
readStatsRuns(const std::string &file, const JsonValue &root)
{
    return readRuns<StatsRun>(file, root, "mssr-stats-v1", readStatsRun);
}

std::vector<ProfileRun>
readProfileRuns(const std::string &file, const JsonValue &root)
{
    return readRuns<ProfileRun>(
        file, root, "mssr-profile-v1",
        [](const JsonValue &v, ProfileRun &run) {
            run.width = static_cast<unsigned>(u64Field(v, "dispatch_width"));
            run.profile = readProfile(field(v, "profile", JsonValue::Object));
        });
}

} // namespace mssr
