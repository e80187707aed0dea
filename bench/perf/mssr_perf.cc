/**
 * mssr_perf: the timed program behind bench/perf/run.py, the repository
 * benchmark (bench/perf/README.md has the workloads, metrics and
 * bounds).
 *
 *   mssr_perf --workload W --out FILE [--seed N] [--smoke]
 *             [--trace FILE] [--tmp-dir DIR]
 *             [--expected FILE] [--update-expected]
 *
 * One process generates all load, on one thread: batch workloads run
 * BatchRunner with one worker, the served workload spawns mssr_serve
 * with one worker and drives it over one connection in a closed loop.
 * The seed becomes every job spec's `seed`, so the simulator only ever
 * sees generated inputs. It runs the workload's fixed number of
 * passes, so every run of a commit takes the same number of samples;
 * a pass sets the workload up (untimed, except as `setup_s`) and then
 * runs its job set: once for the detail workloads, whose sweeps carry
 * nothing over, and twice back to back (the sweep, then its rerun on
 * the filled checkpoint store or the warm daemon) for the others.
 * The host-speed reference (host_speed.hh) is sampled between passes
 * and, about every 0.1 s, at job and batch boundaries inside them; each
 * pass's timings leave the sampling out and are stated in reference
 * seconds, at the mean host speed of the samples over the pass. Every
 * timing reports the median pass.
 *
 * Every job's deterministic record (serveResultRecord /
 * serveSampledRecord) must match every other run of the same job and,
 * for seed 42, the FNV-1a digest committed in --expected. Results are
 * also checked against the functional tier (final registers and halt,
 * computed outside the timed region) and for the CPI-slot and
 * reuse-funnel invariants. Each failure is printed with its job name
 * and makes the exit status 1.
 *
 * With --trace, odd passes record spans around every call into the
 * simulator's layers (span_log.hh) and even passes stay untraced, so
 * the run can report its own tracing overhead; after the timed part,
 * layer probes (predictor and cache replays, checkpoint I/O, a sampled
 * sweep and a served sweep of the workload's own programs and jobs)
 * fill in the per-layer metrics. The spans are written to FILE as
 * Chrome trace JSON.
 *
 * --out receives one JSON object: the metrics with units, the checks'
 * outcome, the program hashes and the build provenance.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "bpu/tage_sc_l.hh"
#include "common/argparse.hh"
#include "common/build_info.hh"
#include "common/frame.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/mini_json.hh"
#include "driver/batch_runner.hh"
#include "driver/sampled_runner.hh"
#include "driver/serve_core.hh"
#include "host_speed.hh"
#include "memsys/hierarchy.hh"
#include "serve_client.hh"
#include "sim/checkpoint.hh"
#include "sim/sample_schedule.hh"
#include "span_log.hh"
#include "workloads/registry.hh"

namespace fs = std::filesystem;
using namespace mssr;
using namespace mssr::perf;

namespace
{

/** Jobs per submit in the closed loop, and how long one may take. */
constexpr std::size_t kServeBatch = 8;
constexpr int kServeBatchTimeoutS = 120;

const std::vector<std::string> kConfigs = {"none", "rgid_4x64",
                                           "rgid_4x1024", "regint_64x4"};

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    bool smoke = false;
    std::string traceOut;
    std::string tmpDir = "tmp";
    std::string expected;
    bool updateExpected = false;
    std::string out;
};

enum class Kind { Detail, Sampled, Serve };

struct Workload
{
    std::string name;
    Kind kind = Kind::Detail;
    std::vector<ServeJobSpec> jobs; //!< one sweep, in submission order
    std::size_t passes = 0;         //!< passes per run
    /** Sweeps of the job set per pass: the detail workloads carry
     *  nothing from one sweep to the next, so they run one. */
    std::size_t sweepsPerPass() const { return kind == Kind::Detail ? 1 : 2; }
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One job: @p program at the given size under one of kConfigs. */
ServeJobSpec
jobSpec(const std::string &program, const std::string &config,
        unsigned scale, unsigned iters, std::uint64_t seed)
{
    ServeJobSpec s;
    s.name = program + "/" + config;
    s.workload = program;
    s.scale = scale;
    s.iters = iters;
    s.seed = seed;
    if (config == "none") {
        s.scheme = "none";
    } else if (config == "regint_64x4") {
        s.scheme = "regint";
        s.sets = 64;
        s.ways = 4;
    } else {
        // rgid_NxM: N streams of M WPB fetch blocks, i.e. 4M
        // squash-log entries per stream (specConfig's --entries rule).
        s.scheme = "rgid";
        s.streams = 4;
        s.entries = config == "rgid_4x64" ? 256 : 4096;
    }
    return s;
}

/**
 * The four workloads. Every one runs the same four configurations, so
 * the reuse-unit and RI overheads are measured on each; they differ in
 * the programs, which is what decides where host time goes. Sizes keep
 * one pass at one to three seconds, and the pass counts make a run
 * measure about BENCHMARK.json's run_seconds (15 s) in reference
 * seconds (host_speed.hh). --smoke shrinks every program and runs two
 * passes (a traced run needs an untraced and a traced one), so the
 * self-test stays short.
 */
Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    Workload w;
    w.name = name;
    const auto matrix = [&](const std::vector<std::string> &programs,
                            unsigned scale, unsigned iters) {
        for (const std::string &p : programs)
            for (const std::string &c : kConfigs)
                w.jobs.push_back(jobSpec(p, c, scale, iters, seed));
    };
    if (name == "detail_squash_heavy") {
        // About 1.7 squashed instructions per commit: wrong-path
        // fetch, applySquash and the reuse unit do most of the host work.
        matrix({"omnetpp", "tc", "bc", "leela", "astar", "mcf"},
               smoke ? 4 : 7, smoke ? 40 : 160);
        w.passes = 8;
    } else if (name == "detail_squash_light") {
        // About 0.08 squashed instructions per commit: host time is
        // the per-cycle pipeline work; the reuse unit is nearly idle.
        matrix({"exchange2", "pr", "cc"}, smoke ? 4 : 8,
               smoke ? 40 : 700);
        w.passes = 11;
    } else if (name == "sampled_store") {
        // Sampled runs: the detailed core sees one window per period;
        // the functional scan, checkpoint I/O and cache-warming replay
        // take the rest.
        matrix({"bc", "cc", "tc", "leela", "astar"}, smoke ? 5 : 9,
               smoke ? 150 : 2500);
        for (ServeJobSpec &s : w.jobs) {
            s.samplePeriod = smoke ? 5000 : 50000;
            s.sampleWindow = smoke ? 500 : 4000;
        }
        w.passes = 7;
    } else if (name == "serve_closed_loop") {
        // Short jobs, so framing, validation, scheduling, record
        // formatting and the journal fsync are a visible share.
        matrix({"nested-mispred", "linear-mispred", "bfs", "cc", "astar",
                "leela"},
               smoke ? 4 : 6, smoke ? 30 : 200);
        const std::size_t n = w.jobs.size();
        for (std::size_t i = 0; i < n; ++i) {
            ServeJobSpec ff = w.jobs[i];
            ff.fastForward = smoke ? 300 : 2000;
            ff.name += "/ff" + std::to_string(ff.fastForward);
            w.jobs.push_back(ff);
        }
        w.passes = 7;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    if (smoke)
        w.passes = 2;
    w.kind = name == "sampled_store"       ? Kind::Sampled
             : name == "serve_closed_loop" ? Kind::Serve
                                           : Kind::Detail;
    return w;
}

/** The workload's programs, one per distinct (name, scale, iters, seed). */
class ProgramSet
{
  public:
    /** Builds every program afresh; returns the wall time it took. */
    double
    build(const std::vector<ServeJobSpec> &specs)
    {
        progs_.clear();
        const auto t0 = Clock::now();
        for (const ServeJobSpec &s : specs)
            if (!progs_.count(key(s)))
                progs_.emplace(key(s), workloads::buildWorkload(
                                           s.workload, specScale(s)));
        return secondsBetween(t0, Clock::now());
    }

    const isa::Program &of(const ServeJobSpec &s) const
    {
        return progs_.at(key(s));
    }

    /** (workload name, program), one entry per distinct program. */
    std::vector<std::pair<std::string, const isa::Program *>>
    distinct() const
    {
        std::vector<std::pair<std::string, const isa::Program *>> out;
        for (const auto &[k, p] : progs_)
            out.emplace_back(std::get<0>(k), &p);
        return out;
    }

  private:
    using Key = std::tuple<std::string, unsigned, unsigned, std::uint64_t>;
    static Key key(const ServeJobSpec &s)
    {
        return {s.workload, s.scale, s.iters, s.seed};
    }
    std::map<Key, isa::Program> progs_; // map: program addresses stay put
};

// ---------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------

std::string
hex16(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

std::string
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return hex16(h);
}

/** Expected-digest section name: the workload, "@smoke" at smoke size. */
std::string
digestSection(const Options &o)
{
    return o.workload + (o.smoke ? "@smoke" : "");
}

using JobDigests = std::map<std::string, std::string>;

class Gate
{
  public:
    /** @p jobs are the workload's own jobs, the ones held to digests;
     *  other names (probe jobs) are only checked against themselves. */
    explicit Gate(const std::vector<ServeJobSpec> &jobs)
    {
        for (const ServeJobSpec &s : jobs)
            digestJobs_.insert(s.name);
    }

    /** Digests to hold the workload's jobs to; null when the file has
     *  no section for this workload and size. */
    void
    expect(const JobDigests *digests)
    {
        checkDigests_ = true;
        if (digests)
            expected_ = *digests;
        else
            fail("(all jobs)", "no expected digests for this workload; "
                               "regenerate with --update-expected");
    }

    /** One execution of @p job produced @p record: it must equal the
     *  job's first record and, for the workload's own jobs, the
     *  expected digest. */
    void
    record(const std::string &job, const std::string &record)
    {
        ++attempted_;
        const auto [it, fresh] = records_.try_emplace(job, record);
        if (!fresh) {
            if (it->second != record)
                fail(job, "record differs from the job's first run:\n  " +
                              it->second + "\n  " + record);
            return;
        }
        if (!checkDigests_ || !digestJobs_.count(job))
            return;
        const auto e = expected_.find(job);
        if (e == expected_.end())
            fail(job, "no expected digest");
        else if (e->second != fnv1a(record))
            fail(job, "record digest " + fnv1a(record) +
                          " != expected " + e->second);
    }

    /** An execution checked some other way than by its record. */
    void attempt() { ++attempted_; }

    void
    fail(const std::string &job, const std::string &what)
    {
        failures_.push_back(job + ": " + what);
        std::cerr << "mssr_perf: FAIL " << job << ": " << what << "\n";
    }

    /** Invariants every detailed result must keep. */
    void
    checkRun(const std::string &job, const RunResult &r)
    {
        if (r.cpi.total() != r.cycles * r.dispatchWidth)
            fail(job, "CPI slots " + std::to_string(r.cpi.total()) +
                          " != cycles x width " +
                          std::to_string(r.cycles * r.dispatchWidth));
        if (!r.funnel.monotonic())
            fail(job, "reuse funnel grows from one stage to the next");
    }

    std::uint64_t attempted() const { return attempted_; }
    const std::vector<std::string> &failures() const { return failures_; }

    /** Digests of the first record of each of the workload's jobs. */
    JobDigests
    workloadDigests() const
    {
        JobDigests out;
        for (const auto &[job, rec] : records_)
            if (digestJobs_.count(job))
                out.emplace(job, fnv1a(rec));
        return out;
    }

  private:
    JobDigests expected_;
    std::set<std::string> digestJobs_;
    bool checkDigests_ = false;
    std::map<std::string, std::string> records_;
    std::uint64_t attempted_ = 0;
    std::vector<std::string> failures_;
};

/** The expected-digest file: section -> job -> digest. */
using DigestFile = std::map<std::string, JobDigests>;

/** Reads the digest file; empty when there is none. */
DigestFile
readDigests(const std::string &path)
{
    DigestFile all;
    std::ifstream is(path);
    if (!is)
        return all;
    std::stringstream ss;
    ss << is.rdbuf();
    const minijson::JsonValue root = minijson::JsonParser(ss.str()).parse();
    if (const auto ws = root.object.find("workloads");
        ws != root.object.end())
        for (const auto &[sec, jobs] : ws->second.object)
            for (const auto &[job, v] : jobs.object)
                all[sec][job] = v.string;
    return all;
}

void
writeDigests(const std::string &path, const DigestFile &all)
{
    std::ofstream os(path);
    os << "{\n  \"schema\": \"mssr-perf-expected-v1\",\n  \"seed\": 42,\n"
          "  \"workloads\": {";
    bool firstSec = true;
    for (const auto &[sec, jobs] : all) {
        os << (firstSec ? "\n" : ",\n") << "    \"" << jsonEscape(sec)
           << "\": {";
        firstSec = false;
        bool firstJob = true;
        for (const auto &[job, digest] : jobs) {
            os << (firstJob ? "\n" : ",\n") << "      \"" << jsonEscape(job)
               << "\": \"" << digest << "\"";
            firstJob = false;
        }
        os << "\n    }";
    }
    os << "\n  }\n}\n";
    if (!os.flush())
        throw std::runtime_error("cannot write '" + path + "'");
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/** Linear-interpolated percentile (0 <= p <= 1); 0 for no samples. */
double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = p * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

double
median(const std::vector<double> &xs)
{
    return percentile(xs, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** What the per-layer metrics need from one detailed run. */
struct JobRun
{
    std::string config;
    double hostS = 0.0;      //!< runSim wall (warm + build + detail)
    double detailS = 0.0;    //!< the detailed cpu.run() loop
    double spanMs = 0.0;     //!< the job's span in the batch engine
    double cycles = 0, insts = 0, squashed = 0, squashEvents = 0;
    double tested = 0, reused = 0, integrations = 0;
    double mispredicts = 0, l1dMisses = 0, l2Misses = 0;
};

JobRun
jobRun(const std::string &config, const RunResult &r, double spanMs)
{
    JobRun j;
    j.config = config;
    j.hostS = r.hostSeconds;
    j.detailS = r.phases.detail;
    j.spanMs = spanMs;
    j.cycles = static_cast<double>(r.cycles);
    j.insts = static_cast<double>(r.insts);
    j.squashed = static_cast<double>(r.funnel.squashed);
    j.squashEvents = r.stats.get("core.squashEvents");
    j.tested = static_cast<double>(r.funnel.tested);
    j.reused = static_cast<double>(r.funnel.reused);
    j.integrations = r.stats.get("ri.integrations");
    j.mispredicts = r.stats.get("core.condMispredictsCommitted");
    j.l1dMisses = r.stats.get("l1d.misses");
    j.l2Misses = r.stats.get("l2.misses");
    return j;
}

/** The configuration part of a job name ("omnetpp/rgid_4x64/ff2000"). */
std::string
configOf(const ServeJobSpec &s)
{
    const std::string rest = s.name.substr(s.workload.size() + 1);
    return rest.substr(0, rest.find('/'));
}

/** One sweep's detailed runs, in the batch engine that ran them. */
struct SweepRuns
{
    /** The engine call's wall time, and the part of it the engine
     *  reports as simulation; both 0 for the traced sampled sweeps,
     *  which make the engine's calls themselves. */
    double wallS = 0.0;
    double engineS = 0.0;
    std::vector<JobRun> jobs;
};

/** Client-side view of the served jobs. */
struct ServeStats
{
    std::vector<double> submitRttMs, resultsRttMs;
    std::uint64_t polls = 0, jobs = 0, journalBytes = 0;
    double cpuS = 0.0;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

// ---------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------

class Bench
{
  public:
    explicit Bench(Options opts)
        : o_(std::move(opts)),
          w_(makeWorkload(o_.workload, o_.seed, o_.smoke)), gate_(w_.jobs)
    {
    }

    Gate &gate() { return gate_; }
    const Gate &gate() const { return gate_; }
    const ProgramSet &programs() const { return programs_; }
    const SpanLog &log() const { return log_; }
    std::size_t passes() const { return w_.passes; }

    void run();
    std::vector<Metric> endToEnd() const;

    /** Wall time of the traced passes, which the layer spans cover:
     *  the timed part and the host-speed samples inside it. */
    double
    tracedWallS() const
    {
        double sum = 0.0;
        for (std::size_t i = 0; i < passWall_.size(); ++i)
            if (passTraced_[i])
                sum += passWall_[i] + passSamplingS_[i];
        return sum;
    }

    /** The per-pass samples behind the end-to-end metrics, in host
     *  seconds, and the host-speed samples around the passes. */
    std::vector<std::pair<std::string, std::vector<double>>>
    passSamples() const
    {
        return {{"wall_s", wall_},
                {"rerun_wall_s", rerun_},
                {"setup_s", setup_},
                {"job_latency_p50_ms", latencyP50_},
                {"job_latency_p90_ms", latencyP90_},
                {"reference_s_per_s", passFactor_},
                {"host_speed_samples_s", speed_.samples()}};
    }
    std::vector<Metric> perLayer() const;

  private:
    void setup();
    void detailPass();
    void sampledPass(bool traced);
    void servePass();
    double detailSweep(const std::string &label, bool collect);
    double sampledSweep(const std::string &store, bool traced, bool warm);
    double closedLoop(ServeDaemon &d, const std::vector<ServeJobSpec> &specs,
                      ServeStats &st, std::vector<double> *latencyMs);
    std::string freshDir(const std::string &stem);
    void sampleHost(bool ifDue);
    void functionalOracle();
    void serveOracle();
    void probes();
    void sampledProbe();
    void serveProbe();

    std::vector<BatchJob> batchJobs(const std::vector<ServeJobSpec> &) const;
    std::vector<double> inReferenceS(const std::vector<double> &xs,
                                     std::size_t firstPass) const;

    Options o_;
    Workload w_;
    ProgramSet programs_;
    std::vector<BatchJob> jobs_;
    Gate gate_;
    SpanLog log_;
    unsigned dirSerial_ = 0;

    std::string store_; //!< the pass's checkpoint store (sampled)

    HostSpeed speed_;
    std::vector<double> passFactor_; //!< reference s per host s, per pass
    std::vector<double> passSamplingS_; //!< sampling inside each pass

    // End-to-end samples in host seconds, one per pass (detail reruns:
    // from the second pass); passLatencyMs_ holds the current pass's
    // job latencies.
    std::vector<double> wall_, rerun_, passWall_, setup_;
    std::vector<double> latencyP50_, latencyP90_, passLatencyMs_;
    std::vector<double> rssMb_;
    std::vector<bool> passTraced_;
    double sweepInsts_ = 0.0; //!< instructions one sweep models

    // Final state of each job's last detailed run (functional check).
    std::map<std::string, RunResult> lastRun_;
    std::map<std::string, SampledRunResult> lastSampled_;
    // Reference windows for the traced (hand-decomposed) sampled path.
    std::map<std::string, std::vector<RunResult>> refWindows_;

    // Per-layer inputs.
    std::vector<double> buildS_;
    std::vector<SweepRuns> sweeps_;
    ServeStats serve_;
    double inProcessMsPerJob_ = 0.0;
    double ffInsts_ = 0.0, ffS_ = 0.0;
    double bpuNs_ = 0.0, memNs_ = 0.0;
    double ckptWriteMs_ = 0.0, ckptReadMs_ = 0.0, ckptMb_ = 0.0;
    double parseUs_ = 0.0, recordUs_ = 0.0;
    double scanColdS_ = 0.0, scanWarmS_ = 0.0, probeWindows_ = 0.0;
    double sampledOverheadPct_ = 0.0;
    std::map<std::string, Checkpoint> finalState_;
};

std::vector<BatchJob>
Bench::batchJobs(const std::vector<ServeJobSpec> &specs) const
{
    std::vector<BatchJob> out;
    for (const ServeJobSpec &s : specs) {
        BatchJob j;
        j.name = s.name;
        j.program = &programs_.of(s);
        j.config = specConfig(s);
        out.push_back(std::move(j));
    }
    return out;
}

/** @p xs, one host-seconds sample per pass from pass @p firstPass on,
 *  in reference seconds. */
std::vector<double>
Bench::inReferenceS(const std::vector<double> &xs, std::size_t firstPass) const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < xs.size(); ++i)
        out.push_back(xs[i] * passFactor_.at(firstPass + i));
    return out;
}

/** A host-speed sample (when one is due, with @p ifDue), in a span of
 *  its own so that traced passes do not charge it to a layer. */
void
Bench::sampleHost(bool ifDue)
{
    if (ifDue && !speed_.due())
        return;
    ScopedSpan span(log_, "host speed sample", "bench");
    speed_.sample();
}

std::string
Bench::freshDir(const std::string &stem)
{
    const std::string dir = o_.tmpDir + "/" + stem + "-" +
                            std::to_string(getpid()) + "-" +
                            std::to_string(dirSerial_++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/**
 * One set-up of a batch workload: building its programs and, sampled,
 * creating the pass's empty checkpoint store. It runs before every
 * pass, so the set-ups spread over the run like the passes do. (The
 * served workload's set-up is the daemon start-up in servePass().)
 */
void
Bench::setup()
{
    const auto t0 = Clock::now();
    buildS_.push_back(programs_.build(w_.jobs));
    jobs_ = batchJobs(w_.jobs);
    if (w_.kind == Kind::Sampled)
        store_ = freshDir("store");
    setup_.push_back(secondsBetween(t0, Clock::now()));
}

void
Bench::run()
{
    if (w_.kind == Kind::Serve) {
        // In-process programs, for the oracle and the probes only.
        buildS_.push_back(programs_.build(w_.jobs));
        jobs_ = batchJobs(w_.jobs);
    }
    const bool tracing = !o_.traceOut.empty();
    sampleHost(false);
    for (std::size_t pass = 0; pass < w_.passes; ++pass) {
        // The pass's host speed: the samples from the one just before
        // it to the one just after it, with those taken during it.
        const std::size_t firstSample = speed_.count() - 1;
        if (w_.kind != Kind::Serve)
            setup();
        // A traced run alternates untraced and traced passes, so it
        // measures its own tracing overhead.
        const bool traced = tracing && pass % 2 == 1;
        log_.setEnabled(traced);
        passLatencyMs_.clear();
        const double sampling = speed_.spentS();
        switch (w_.kind) {
          case Kind::Detail:  detailPass(); break;
          case Kind::Sampled: sampledPass(traced); break;
          case Kind::Serve:   servePass(); break;
        }
        log_.setEnabled(false);
        passTraced_.push_back(traced);
        passSamplingS_.push_back(speed_.spentS() - sampling);
        latencyP50_.push_back(percentile(passLatencyMs_, 0.50));
        latencyP90_.push_back(percentile(passLatencyMs_, 0.90));
        sampleHost(false);
        passFactor_.push_back(speed_.factorSince(firstSample));
    }
    if (w_.kind != Kind::Serve)
        rssMb_.push_back(static_cast<double>(peakRssKb()) / 1024.0);

    // Everything below is outside the timed region.
    if (w_.kind == Kind::Serve)
        serveOracle();
    functionalOracle();
    if (tracing) {
        probes();
        log_.writeChromeTrace(o_.traceOut);
    }
}

// -- batch workloads ---------------------------------------------------

double
Bench::detailSweep(const std::string &label, bool collect)
{
    BatchRunner runner(1);
    // Completion times on the host-speed clock, which stops while a
    // sample runs, and on the span log's.
    std::vector<double> done(jobs_.size());
    std::vector<Clock::time_point> doneAt(jobs_.size());
    runner.setJobDone([&](std::size_t i, const RunResult &) {
        doneAt[i] = Clock::now();
        done[i] = speed_.now();
        sampleHost(true);
    });
    const int span = log_.open(label, "driver");
    const double t0 = speed_.now();
    std::vector<RunResult> rs = runner.run(jobs_);
    const double t1 = speed_.now();
    log_.close(span);

    SweepRuns sweep;
    sweep.wallS = t1 - t0;
    double prev = t0;
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const ServeJobSpec &s = w_.jobs[i];
        const RunResult &r = rs[i];
        passLatencyMs_.push_back((done[i] - t0) * 1e3);
        if (span >= 0) {
            // runSim's own clocks place the call inside the batch: it
            // ends just before the completion hook fires.
            const double end = log_.at(doneAt[i]);
            const double start = end - r.hostSeconds - r.phases.serialize;
            log_.add("runSim " + s.name, "core", start, end, span,
                     static_cast<long>(i));
        }
        sweep.engineS += r.hostSeconds + r.phases.serialize;
        sweep.jobs.push_back(jobRun(configOf(s), r, (done[i] - prev) * 1e3));
        prev = done[i];
        gate_.record(s.name, serveResultRecord(s, r));
        gate_.checkRun(s.name, r);
        lastRun_[s.name] = r;
    }
    if (collect)
        sweeps_.push_back(std::move(sweep));
    return t1 - t0;
}

void
Bench::detailPass()
{
    ScopedSpan pass(log_, "pass", "bench");
    const double wall = detailSweep("BatchRunner::run", !o_.traceOut.empty());
    // Each sweep after the first reruns the identical job set.
    wall_.push_back(wall);
    if (!passWall_.empty())
        rerun_.push_back(wall);
    passWall_.push_back(wall);
    if (sweepInsts_ == 0.0)
        for (const auto &[name, r] : lastRun_)
            sweepInsts_ += static_cast<double>(r.insts + r.ffInsts);
}

/**
 * One sampled sweep on @p store. Untraced, it is one runSampled call.
 * Traced, the benchmark makes runSampled's calls itself -- one
 * buildSampleSchedule per program, one runSim per window, built the
 * way sampled_runner.cc builds them -- so each gets its own span, and
 * every window must equal the one runSampled produced.
 */
double
Bench::sampledSweep(const std::string &store, bool traced, bool warm)
{
    const std::string label = warm ? "sampled sweep (rerun)" : "sampled sweep";
    SweepRuns sweep;
    if (!traced) {
        BatchRunner runner(1);
        runner.setCheckpointDir(store);
        std::vector<double> done; // on the host-speed clock
        runner.setJobDone([&](std::size_t i, const RunResult &) {
            if (done.size() <= i)
                done.resize(i + 1);
            done[i] = speed_.now();
            sampleHost(true);
        });
        const double t0 = speed_.now();
        std::vector<SampledRunResult> rs = runner.runSampled(jobs_);
        const double t1 = speed_.now();
        sweep.wallS = t1 - t0;
        std::size_t window = 0;
        double prev = t0;
        for (std::size_t i = 0; i < rs.size(); ++i) {
            const ServeJobSpec &s = w_.jobs[i];
            const SampledRunResult &r = rs[i];
            sweep.engineS += r.scanHostSeconds;
            for (const RunResult &wr : r.windowResults) {
                sweep.engineS += wr.hostSeconds + wr.phases.serialize;
                sweep.jobs.push_back(
                    jobRun(configOf(s), wr, (done.at(window) - prev) * 1e3));
                prev = done[window++];
            }
            passLatencyMs_.push_back((prev - t0) * 1e3);
            gate_.record(s.name, serveSampledRecord(s, r));
            if (r.cpi.total() != r.cycles * r.dispatchWidth ||
                !r.funnel.monotonic())
                gate_.fail(s.name, "pooled CPI slots or funnel invalid");
            for (const RunResult &wr : r.windowResults)
                gate_.checkRun(s.name, wr);
            if (!refWindows_.count(s.name))
                refWindows_[s.name] = r.windowResults;
        }
        lastSampled_.clear();
        for (std::size_t i = 0; i < rs.size(); ++i)
            lastSampled_.emplace(w_.jobs[i].name, std::move(rs[i]));
        if (!o_.traceOut.empty())
            sweeps_.push_back(std::move(sweep));
        return t1 - t0;
    }

    const int span = log_.open(label, "driver");
    const double t0 = speed_.now();
    std::map<const isa::Program *, SampleSchedule> schedules;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const BatchJob &j = jobs_[i];
        if (schedules.count(j.program))
            continue;
        {
            ScopedSpan scan(log_,
                            "buildSampleSchedule " + w_.jobs[i].workload,
                            "sim");
            schedules.emplace(
                j.program,
                buildSampleSchedule(*j.program, j.config.samplePeriod,
                                    j.config.funcTier, store,
                                    j.config.maxInsts));
        }
        sampleHost(true);
    }
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const BatchJob &j = jobs_[i];
        const SampleSchedule &sched = schedules.at(j.program);
        const std::vector<RunResult> &ref = refWindows_.at(j.name);
        gate_.attempt();
        if (ref.size() != sched.windows()) {
            gate_.fail(j.name, "window count differs from runSampled");
            continue;
        }
        for (std::uint64_t w = 0; w < sched.windows(); ++w) {
            const std::uint64_t offset = w * j.config.samplePeriod;
            SimConfig cfg = j.config;
            cfg.samplePeriod = 0;
            cfg.sampleWindow = 0;
            cfg.maxInsts =
                std::min(j.config.sampleWindow, sched.totalInsts - offset);
            const bool reset = w == 0;
            cfg.fastForwardInsts = reset ? 0 : offset;
            cfg.checkpoint = reset ? nullptr : &sched.checkpoints[w - 1];
            cfg.warmBpu = !reset;
            cfg.warmCaches = !reset;
            const auto w0 = Clock::now();
            const RunResult r = runSim(*j.program, cfg);
            const auto w1 = Clock::now();
            const int ws = log_.add("runSim " + j.name + "#w" +
                                        std::to_string(w),
                                    "core", log_.at(w0), log_.at(w1), span,
                                    static_cast<long>(i));
            if (!reset)
                log_.add("checkpoint restore", "sim", log_.at(w0),
                         log_.at(w0) + r.phases.warm, ws,
                         static_cast<long>(i));
            sweep.jobs.push_back(
                jobRun(configOf(w_.jobs[i]), r, secondsBetween(w0, w1) * 1e3));
            const RunResult &x = ref[w];
            if (r.cycles != x.cycles || r.insts != x.insts ||
                !(r.cpi == x.cpi) || !(r.funnel == x.funnel) ||
                r.archRegs != x.archRegs)
                gate_.fail(j.name, "window " + std::to_string(w) +
                                       " differs from runSampled's");
            sampleHost(true);
        }
    }
    const double t1 = speed_.now();
    log_.close(span);
    sweeps_.push_back(std::move(sweep)); // no engine: wall and engine stay 0
    return t1 - t0;
}

void
Bench::sampledPass(bool traced)
{
    // Each pass starts from the empty store setup() made: the sweep
    // writes it, the rerun reads it. Removing it is outside the clock.
    {
        ScopedSpan pass(log_, "pass", "bench");
        const double first = sampledSweep(store_, traced, false);
        const double again = sampledSweep(store_, traced, true);
        wall_.push_back(first);
        rerun_.push_back(again);
        passWall_.push_back(first + again);
    }
    fs::remove_all(store_);
    if (sweepInsts_ == 0.0)
        for (const auto &[name, r] : lastSampled_)
            sweepInsts_ += static_cast<double>(r.totalInsts);
}

// -- served workload ---------------------------------------------------

/** The raw JSON text of each element of the reply's "records" array. */
std::vector<std::string>
rawRecords(const std::string &reply)
{
    std::vector<std::string> out;
    const std::string key = "\"records\": [";
    std::size_t i = reply.find(key);
    if (i == std::string::npos)
        return out;
    i += key.size();
    int depth = 0;
    bool inString = false;
    std::size_t begin = 0;
    for (; i < reply.size(); ++i) {
        const char c = reply[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
        } else if (c == '"') {
            inString = true;
        } else if (c == '{') {
            if (depth++ == 0)
                begin = i;
        } else if (c == '}') {
            if (--depth == 0)
                out.push_back(reply.substr(begin, i - begin + 1));
        } else if (c == ']' && depth == 0) {
            break;
        }
    }
    return out;
}

bool
isError(const std::string &reply)
{
    return reply.rfind("{\"ok\": false", 0) == 0;
}

/**
 * Drives @p specs through the daemon in a closed loop: submit a batch
 * of kServeBatch jobs, poll `results` every millisecond until every
 * record of the batch has arrived, then submit the next batch. A job's
 * latency runs from sending its submit to the reply carrying its
 * record.
 */
double
Bench::closedLoop(ServeDaemon &d, const std::vector<ServeJobSpec> &specs,
                  ServeStats &st, std::vector<double> *latencyMs)
{
    const double t0 = speed_.now();
    for (std::size_t b = 0; b < specs.size(); b += kServeBatch) {
        // Between batches the daemon is idle: the host-speed sample
        // takes no time from it.
        if (b > 0)
            sampleHost(true);
        const std::size_t n = std::min(kServeBatch, specs.size() - b);
        ScopedSpan batch(log_, "batch", "driver");
        std::string submit = "{\"type\": \"submit\", \"label\": \"perf\", "
                             "\"jobs\": [";
        for (std::size_t i = 0; i < n; ++i)
            submit += (i ? ", " : "") + canonicalJobSpec(specs[b + i]);
        submit += "]}";
        const auto tSubmit = Clock::now();
        std::string reply;
        {
            ScopedSpan s(log_, "submit", "common");
            reply = d.request(submit);
        }
        st.submitRttMs.push_back(secondsBetween(tSubmit, Clock::now()) * 1e3);
        if (isError(reply)) {
            for (std::size_t i = 0; i < n; ++i)
                gate_.fail(specs[b + i].name, "submit refused: " + reply);
            continue;
        }
        const std::uint64_t id = static_cast<std::uint64_t>(
            minijson::JsonParser(reply).parse().object.at("batch").number);
        std::size_t next = 0;
        while (next < n) {
            if (secondsBetween(tSubmit, Clock::now()) > kServeBatchTimeoutS) {
                gate_.fail(specs[b + next].name, "no record after " +
                           std::to_string(kServeBatchTimeoutS) + " s");
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            const std::string poll = "{\"type\": \"results\", \"batch\": " +
                                     std::to_string(id) + ", \"since\": " +
                                     std::to_string(next) + "}";
            const auto tPoll = Clock::now();
            {
                ScopedSpan s(log_, "results", "common");
                reply = d.request(poll);
            }
            const auto tReply = Clock::now();
            st.resultsRttMs.push_back(secondsBetween(tPoll, tReply) * 1e3);
            st.polls++;
            if (isError(reply)) {
                gate_.fail(specs[b + next].name, "results refused: " + reply);
                break;
            }
            for (const std::string &rec : rawRecords(reply)) {
                if (next >= n)
                    break;
                gate_.record(specs[b + next].name, rec);
                if (latencyMs)
                    latencyMs->push_back(secondsBetween(tSubmit, tReply) * 1e3);
                ++next;
                st.jobs++;
            }
            if (next < n &&
                (reply.find("\"state\": \"failed\"") != std::string::npos ||
                 reply.find("\"state\": \"cancelled\"") != std::string::npos)) {
                gate_.fail(specs[b + next].name, "batch ended: " + reply);
                break;
            }
        }
    }
    return speed_.now() - t0;
}

void
Bench::servePass()
{
    // A fresh daemon per pass: its start-up (spawn until the first
    // ping reply) is this workload's set-up, the sweep fills its empty
    // checkpoint store, and the rerun finds it filled.
    const std::string dir = freshDir("serve");
    const auto t0 = Clock::now();
    ServeDaemon d(MSSR_PERF_SERVE_BIN, dir);
    d.waitReady(30.0);
    setup_.push_back(secondsBetween(t0, Clock::now()));
    {
        ScopedSpan pass(log_, "pass", "bench");
        const double first = closedLoop(d, w_.jobs, serve_, &passLatencyMs_);
        const double again = closedLoop(d, w_.jobs, serve_, &passLatencyMs_);
        wall_.push_back(first);
        rerun_.push_back(again);
        passWall_.push_back(first + again);
    }
    rssMb_.push_back(static_cast<double>(d.peakRssKb()) / 1024.0);
    serve_.cpuS += d.cpuSeconds();
    serve_.journalBytes += d.journalBytes();
    if (const int rc = d.shutdown(); rc != 0)
        gate_.fail("mssr_serve", "exit status " + std::to_string(rc));
    fs::remove_all(dir);
}

/**
 * Runs every served spec in-process (BatchRunner, one worker): each
 * spec's record must equal the daemon's. Also the in-process cost the
 * daemon's CPU time is compared against, and, traced, the per-layer
 * core and reuse figures of the served jobs.
 */
void
Bench::serveOracle()
{
    BatchRunner runner(1);
    std::vector<Clock::time_point> done(jobs_.size());
    runner.setJobDone([&](std::size_t i, const RunResult &) {
        done[i] = Clock::now();
    });
    const auto t0 = Clock::now();
    const std::vector<RunResult> rs = runner.run(jobs_);
    SweepRuns sweep;
    sweep.wallS = secondsBetween(t0, Clock::now());
    inProcessMsPerJob_ = sweep.wallS * 1e3 / static_cast<double>(rs.size());
    auto prev = t0;
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const ServeJobSpec &s = w_.jobs[i];
        gate_.record(s.name, serveResultRecord(s, rs[i]));
        gate_.checkRun(s.name, rs[i]);
        lastRun_[s.name] = rs[i];
        sweepInsts_ += static_cast<double>(rs[i].insts + rs[i].ffInsts);
        sweep.engineS += rs[i].hostSeconds + rs[i].phases.serialize;
        sweep.jobs.push_back(
            jobRun(configOf(s), rs[i], secondsBetween(prev, done[i]) * 1e3));
        prev = done[i];
    }
    sweeps_.push_back(std::move(sweep));
}

/**
 * Runs every program on the functional tier to HALT (outside the
 * timed region): each detailed run must end with the same registers
 * and halt flag, each sampled run must cover the same instructions.
 */
void
Bench::functionalOracle()
{
    for (const auto &[name, prog] : programs_.distinct()) {
        const auto t0 = Clock::now();
        Checkpoint ck = computeCheckpoint(*prog, 0);
        ffS_ += secondsBetween(t0, Clock::now());
        ffInsts_ += static_cast<double>(ck.instret);
        finalState_[name] = std::move(ck);
    }
    for (const ServeJobSpec &s : w_.jobs) {
        const Checkpoint &ck = finalState_.at(s.workload);
        if (const auto it = lastRun_.find(s.name); it != lastRun_.end()) {
            if (it->second.halted != ck.halted ||
                it->second.archRegs != ck.regs)
                gate_.fail(s.name, "final registers or halt differ from the "
                                   "functional tier");
        } else if (const auto sit = lastSampled_.find(s.name);
                   sit != lastSampled_.end()) {
            if (sit->second.halted != ck.halted ||
                sit->second.totalInsts != ck.instret)
                gate_.fail(s.name, "sampled length or halt differs from the "
                                   "functional tier");
        }
    }
}

// -- layer probes (traced runs, after the timed part) -------------------

void
Bench::probes()
{
    constexpr int kReps = 5;
    std::uint64_t branches = 0, accesses = 0;
    double bpuS = 0.0, memS = 0.0;
    const std::string dir = freshDir("probe");
    double writeS = 0.0, readS = 0.0, bytes = 0.0;
    int ckpts = 0;
    for (const auto &[name, ck] : finalState_) {
        // Predictor: the program's last branches, replayed as the
        // frontend drives it (predict, speculative and commit update).
        for (int rep = 0; rep < kReps; ++rep) {
            TageScLPredictor bp;
            const auto t0 = Clock::now();
            for (const BranchOutcome &b : ck.branchHist) {
                bp.predict(b.pc);
                bp.specUpdate(b.pc, b.taken);
                bp.commitUpdate(b.pc, b.taken);
            }
            bpuS += secondsBetween(t0, Clock::now());
            branches += ck.branchHist.size();
        }
        // Caches: the program's last data accesses, replayed through
        // the Table-3 hierarchy.
        for (int rep = 0; rep < kReps; ++rep) {
            MemHierarchy mem{CoreConfig{}};
            const auto t0 = Clock::now();
            for (const MemAccess &a : ck.memHist) {
                if (a.isStore)
                    mem.storeAccess(a.addr);
                else
                    mem.loadLatency(a.addr);
            }
            memS += secondsBetween(t0, Clock::now());
            accesses += ck.memHist.size();
        }
        const std::string path = dir + "/" + name + ".ckpt";
        const auto w0 = Clock::now();
        writeCheckpoint(path, ck);
        const auto w1 = Clock::now();
        const Checkpoint back = readCheckpoint(path);
        const auto w2 = Clock::now();
        if (!(back == ck))
            gate_.fail(name, "checkpoint changed in a write/read round trip");
        writeS += secondsBetween(w0, w1);
        readS += secondsBetween(w1, w2);
        bytes += static_cast<double>(fs::file_size(path));
        ++ckpts;
    }
    fs::remove_all(dir);
    bpuNs_ = ratio(bpuS * 1e9, static_cast<double>(branches));
    memNs_ = ratio(memS * 1e9, static_cast<double>(accesses));
    ckptWriteMs_ = ratio(writeS * 1e3, ckpts);
    ckptReadMs_ = ratio(readS * 1e3, ckpts);
    ckptMb_ = ratio(bytes / (1024.0 * 1024.0), ckpts);

    // Serve layer in-process: parsing and validating a job spec, and
    // formatting a result record, for the workload's own jobs.
    constexpr int kFormatReps = 50;
    std::vector<std::string> texts;
    for (const ServeJobSpec &s : w_.jobs)
        texts.push_back(canonicalJobSpec(s));
    auto t0 = Clock::now();
    for (int rep = 0; rep < kFormatReps; ++rep)
        for (const std::string &t : texts) {
            const ServeJobSpec s =
                parseJobSpec(minijson::JsonParser(t).parse());
            if (!validateJobSpec(s).empty())
                gate_.fail(s.name, "job spec does not validate");
        }
    parseUs_ = secondsBetween(t0, Clock::now()) * 1e6 /
               static_cast<double>(kFormatReps * texts.size());
    t0 = Clock::now();
    std::size_t chars = 0;
    for (int rep = 0; rep < kFormatReps; ++rep)
        for (const ServeJobSpec &s : w_.jobs)
            chars += w_.kind == Kind::Sampled
                         ? serveSampledRecord(s, lastSampled_.at(s.name)).size()
                         : serveResultRecord(s, lastRun_.at(s.name)).size();
    recordUs_ = secondsBetween(t0, Clock::now()) * 1e6 /
                static_cast<double>(kFormatReps * w_.jobs.size());
    if (chars == 0)
        gate_.fail("(records)", "empty result records");

    sampledProbe();
    if (w_.kind != Kind::Serve)
        serveProbe();
}

/**
 * The sampled path over the workload's programs (rgid_4x64, the
 * sampled_store period and window): one runSampled on an empty store,
 * one on the filled store.
 */
void
Bench::sampledProbe()
{
    std::vector<ServeJobSpec> specs;
    std::set<std::string> seen;
    for (const ServeJobSpec &s : w_.jobs) {
        if (!seen.insert(s.workload).second)
            continue;
        ServeJobSpec p = jobSpec(s.workload, "rgid_4x64", s.scale, s.iters,
                                 s.seed);
        p.name = "sampled-probe:" + p.name;
        p.samplePeriod = o_.smoke ? 5000 : 50000;
        p.sampleWindow = o_.smoke ? 500 : 4000;
        specs.push_back(p);
    }
    const std::vector<BatchJob> jobs = batchJobs(specs);
    const std::string store = freshDir("probe-store");
    BatchRunner runner(1);
    runner.setCheckpointDir(store);
    double engine = 0.0, wall = 0.0;
    for (int sweep = 0; sweep < 2; ++sweep) {
        const auto t0 = Clock::now();
        const std::vector<SampledRunResult> rs = runner.runSampled(jobs);
        wall += secondsBetween(t0, Clock::now());
        for (std::size_t i = 0; i < rs.size(); ++i) {
            gate_.record(specs[i].name, serveSampledRecord(specs[i], rs[i]));
            (sweep ? scanWarmS_ : scanColdS_) += rs[i].scanHostSeconds;
            engine += rs[i].scanHostSeconds;
            for (const RunResult &r : rs[i].windowResults)
                engine += r.hostSeconds + r.phases.serialize;
            if (sweep == 0)
                probeWindows_ += static_cast<double>(rs[i].windows);
        }
    }
    sampledOverheadPct_ = ratio(wall - engine, wall) * 100.0;
    fs::remove_all(store);
}

/** One closed-loop sweep of the workload's own jobs through a daemon. */
void
Bench::serveProbe()
{
    const std::string dir = freshDir("serve-probe");
    {
        ServeDaemon d(MSSR_PERF_SERVE_BIN, dir);
        d.waitReady(30.0);
        closedLoop(d, w_.jobs, serve_, nullptr);
        serve_.cpuS += d.cpuSeconds();
        serve_.journalBytes += d.journalBytes();
        if (const int rc = d.shutdown(); rc != 0)
            gate_.fail("mssr_serve", "exit status " + std::to_string(rc));
    }
    fs::remove_all(dir);
    inProcessMsPerJob_ =
        median(wall_) * 1e3 / static_cast<double>(w_.jobs.size());
}

// -- metrics -------------------------------------------------------------

std::vector<Metric>
Bench::endToEnd() const
{
    // Every timing is in reference seconds, which takes out most of the
    // host's drifts, and is the median pass, which takes out a pass hit
    // by a burst of other load unless most passes are.
    const auto passMedian = [&](const std::vector<double> &xs,
                                std::size_t firstPass) {
        return median(inReferenceS(xs, firstPass));
    };
    const double pass = passMedian(passWall_, 0);
    const double sweeps = static_cast<double>(w_.sweepsPerPass());
    return {
        {"wall_s", passMedian(wall_, 0), "s"},
        {"rerun_wall_s", passMedian(rerun_, w_.kind == Kind::Detail ? 1 : 0),
         "s"},
        {"kips", ratio(sweeps * sweepInsts_, pass) / 1e3, "kinst/s"},
        {"jobs_per_s",
         ratio(sweeps * static_cast<double>(w_.jobs.size()), pass), "1/s"},
        {"job_latency_p50_ms", passMedian(latencyP50_, 0), "ms"},
        {"job_latency_p90_ms", passMedian(latencyP90_, 0), "ms"},
        {"setup_s", passMedian(setup_, 0), "s"},
        {"peak_rss_mb", median(rssMb_), "MiB"},
    };
}

std::vector<Metric>
Bench::perLayer() const
{
    // Sums over every collected sweep, and per-sweep medians.
    JobRun all;
    std::map<std::string, double> hostByConfig;
    std::vector<double> detailPerSweep, spanMs;
    double wall = 0.0, engine = 0.0, reuseSquashed = 0.0;
    for (const SweepRuns &sw : sweeps_) {
        double detail = 0.0;
        for (const JobRun &j : sw.jobs) {
            detail += j.detailS;
            all.detailS += j.detailS;
            all.cycles += j.cycles;
            all.insts += j.insts;
            all.squashed += j.squashed;
            all.squashEvents += j.squashEvents;
            all.tested += j.tested;
            all.reused += j.reused;
            all.integrations += j.integrations;
            all.mispredicts += j.mispredicts;
            all.l1dMisses += j.l1dMisses;
            all.l2Misses += j.l2Misses;
            if (j.config.rfind("rgid", 0) == 0)
                reuseSquashed += j.squashed;
            hostByConfig[j.config] += j.hostS;
            spanMs.push_back(j.spanMs);
        }
        detailPerSweep.push_back(detail);
        wall += sw.wallS;
        engine += sw.engineS;
    }
    const double sweeps = static_cast<double>(std::max<std::size_t>(
        1, sweeps_.size()));
    const auto overhead = [&](const std::string &config) {
        return (ratio(hostByConfig[config], hostByConfig["none"]) - 1.0) *
               100.0;
    };

    std::vector<double> tracedWall, untracedWall;
    const std::vector<double> passRef = inReferenceS(passWall_, 0);
    for (std::size_t i = 0; i < passRef.size(); ++i)
        (passTraced_[i] ? tracedWall : untracedWall).push_back(passRef[i]);
    const double jobs = static_cast<double>(std::max<std::uint64_t>(
        1, serve_.jobs));
    const double cpuMsPerJob = serve_.cpuS * 1e3 / jobs;

    return {
        {"workloads.build_s", median(buildS_), "s"},
        {"core.detail_s", median(detailPerSweep), "s"},
        {"core.kips", ratio(all.insts, all.detailS) / 1e3, "kinst/s"},
        {"core.ns_per_cycle", ratio(all.detailS, all.cycles) * 1e9, "ns"},
        {"core.ns_per_fetched_inst",
         ratio(all.detailS, all.insts + all.squashed) * 1e9, "ns"},
        {"core.cycles", all.cycles / sweeps, "count"},
        {"core.insts", all.insts / sweeps, "count"},
        {"core.squashed_insts", all.squashed / sweeps, "count"},
        {"core.squash_events", all.squashEvents / sweeps, "count"},
        {"reuse.overhead_4x64_pct", overhead("rgid_4x64"), "%"},
        {"reuse.overhead_4x1024_pct", overhead("rgid_4x1024"), "%"},
        {"reuse.tested", all.tested / sweeps, "count"},
        {"reuse.reused", all.reused / sweeps, "count"},
        {"reuse.hit_rate", ratio(all.reused, all.tested), "ratio"},
        {"reuse.salvage_rate", ratio(all.reused, reuseSquashed), "ratio"},
        {"ri.overhead_pct", overhead("regint_64x4"), "%"},
        {"ri.integrations", all.integrations / sweeps, "count"},
        {"bpu.ns_per_branch", bpuNs_, "ns"},
        {"bpu.mpki", ratio(all.mispredicts, all.insts) * 1e3, "1/kinst"},
        {"memsys.ns_per_access", memNs_, "ns"},
        {"memsys.l1d_mpki", ratio(all.l1dMisses, all.insts) * 1e3, "1/kinst"},
        {"memsys.l2_mpki", ratio(all.l2Misses, all.insts) * 1e3, "1/kinst"},
        {"sim.ff_mips", ratio(ffInsts_, ffS_) / 1e6, "Minst/s"},
        {"sim.scan_cold_s", scanColdS_, "s"},
        {"sim.scan_warm_s", scanWarmS_, "s"},
        {"sim.ckpt_write_ms", ckptWriteMs_, "ms"},
        {"sim.ckpt_read_ms", ckptReadMs_, "ms"},
        {"sim.ckpt_mb", ckptMb_, "MiB"},
        {"driver.batch_overhead_pct", ratio(wall - engine, wall) * 100.0, "%"},
        {"driver.sampled_overhead_pct", sampledOverheadPct_, "%"},
        {"driver.job_ms_p50", percentile(spanMs, 0.50), "ms"},
        {"driver.job_ms_p95", percentile(spanMs, 0.95), "ms"},
        {"driver.windows", probeWindows_, "count"},
        {"driver.serve_submit_rtt_ms_p50",
         percentile(serve_.submitRttMs, 0.50), "ms"},
        {"driver.serve_submit_rtt_ms_p90",
         percentile(serve_.submitRttMs, 0.90), "ms"},
        {"driver.serve_results_rtt_ms_p50",
         percentile(serve_.resultsRttMs, 0.50), "ms"},
        {"driver.serve_results_rtt_ms_p90",
         percentile(serve_.resultsRttMs, 0.90), "ms"},
        {"driver.serve_cpu_ms_per_job", cpuMsPerJob, "ms"},
        {"driver.serve_overhead_ms_per_job",
         cpuMsPerJob - inProcessMsPerJob_, "ms"},
        {"driver.serve_polls_per_job",
         static_cast<double>(serve_.polls) / jobs, "count"},
        {"driver.serve_journal_bytes_per_job",
         static_cast<double>(serve_.journalBytes) / jobs, "B"},
        {"driver.parse_job_us", parseUs_, "us"},
        {"driver.record_us", recordUs_, "us"},
        {"trace.overhead_pct",
         (ratio(median(tracedWall), median(untracedWall)) - 1.0) * 100.0,
         "%"},
    };
}

// ---------------------------------------------------------------------
// Command line and result file
// ---------------------------------------------------------------------

[[noreturn]] void
usage(int code)
{
    (code ? std::cerr : std::cout)
        << "usage: mssr_perf --workload W --out FILE [--seed N] [--smoke]\n"
           "                 [--trace FILE] [--tmp-dir DIR] "
           "[--expected FILE] [--update-expected]\n"
           "workloads: detail_squash_heavy detail_squash_light "
           "sampled_store serve_closed_loop\n";
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "mssr_perf: " << a << " needs a value\n";
                usage(2);
            }
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = next();
        } else if (a == "--seed") {
            const auto v = parseU64(next());
            if (!v)
                usage(2);
            o.seed = *v;
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--trace") {
            o.traceOut = next();
        } else if (a == "--tmp-dir") {
            o.tmpDir = next();
        } else if (a == "--expected") {
            o.expected = next();
        } else if (a == "--update-expected") {
            o.updateExpected = true;
        } else if (a == "--out") {
            o.out = next();
        } else if (a == "--help" || a == "-h") {
            usage(0);
        } else {
            std::cerr << "mssr_perf: unknown argument '" << a << "'\n";
            usage(2);
        }
    }
    if (o.workload.empty() || o.out.empty())
        usage(2);
    return o;
}

/** Why this build must not be timed, or "" when it may. */
std::string
untimeableBuild()
{
    const std::string type = buildType();
    const std::string flags = MSSR_PERF_CXX_FLAGS;
    if (type == "Debug" || type.empty())
        return "build type '" + type + "' is not optimized";
    if (flags.find("-fsanitize") != std::string::npos)
        return "built with sanitizers (" + flags + ")";
    return "";
}

void
writeResult(const Options &o, const Bench &b, const std::vector<Metric> &ms)
{
    std::ofstream os(o.out);
    os.precision(17);
    os << "{\"schema\": \"mssr-perf-result-v1\", \"workload\": \""
       << jsonEscape(o.workload) << "\", \"seed\": " << o.seed
       << ", \"passes\": " << b.passes()
       << ", \"smoke\": " << (o.smoke ? "true" : "false")
       << ", \"traced\": " << (o.traceOut.empty() ? "false" : "true")
       << ", \"build_info\": \"" << jsonEscape(buildInfoLine())
       << "\", \"build_type\": \"" << jsonEscape(buildType())
       << "\", \"cxx_flags\": \"" << jsonEscape(MSSR_PERF_CXX_FLAGS)
       << "\", \"attempted\": " << b.gate().attempted()
       << ", \"failed\": " << b.gate().failures().size() << ", \"failures\": [";
    const auto &fails = b.gate().failures();
    for (std::size_t i = 0; i < fails.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(fails[i]) << "\"";
    os << "], \"programs\": {";
    bool first = true;
    for (const auto &[name, p] : b.programs().distinct()) {
        os << (first ? "" : ", ") << "\"" << jsonEscape(name) << "\": \""
           << hex16(p->hash()) << "\"";
        first = false;
    }
    os << "}, \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i)
        os << (i ? ", " : "") << "\"" << ms[i].name
           << "\": {\"value\": " << ms[i].value << ", \"unit\": \""
           << ms[i].unit << "\"}";
    os << "}, \"passes\": {";
    first = true;
    for (const auto &[name, xs] : b.passSamples()) {
        os << (first ? "" : ", ") << "\"" << name << "\": [";
        for (std::size_t i = 0; i < xs.size(); ++i)
            os << (i ? ", " : "") << xs[i];
        os << "]";
        first = false;
    }
    os << "}, \"traced_wall_s\": " << b.tracedWallS() << ", \"layers\": [";
    first = true;
    for (const auto &[layer, t] : b.log().layerTotals()) {
        os << (first ? "" : ", ") << "{\"layer\": \"" << jsonEscape(layer)
           << "\", \"count\": " << t.count << ", \"total_s\": " << t.totalS
           << ", \"self_s\": " << t.selfS << "}";
        first = false;
    }
    os << "]}\n";
    if (!os.flush())
        throw std::runtime_error("cannot write '" + o.out + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    if (const std::string why = untimeableBuild(); !why.empty()) {
        std::cerr << "mssr_perf: refusing to time this build: " << why
                  << "\n";
        return 2;
    }
    Logger::global().setLevel(LogLevel::Warn);
    try {
        fs::create_directories(o.tmpDir);
        Bench bench(o);
        DigestFile digests;
        if (!o.expected.empty())
            digests = readDigests(o.expected);
        if (!o.expected.empty() && o.seed == 42 && !o.updateExpected) {
            const auto it = digests.find(digestSection(o));
            bench.gate().expect(it == digests.end() ? nullptr : &it->second);
        }
        bench.run();
        const std::vector<Metric> ms =
            o.traceOut.empty() ? bench.endToEnd() : bench.perLayer();
        writeResult(o, bench, ms);
        if (o.updateExpected) {
            if (o.seed != 42 || o.expected.empty() ||
                !bench.gate().failures().empty()) {
                std::cerr << "mssr_perf: --update-expected needs --seed 42, "
                             "--expected and a run without failures\n";
                return 1;
            }
            digests[digestSection(o)] = bench.gate().workloadDigests();
            writeDigests(o.expected, digests);
        }
        return bench.gate().failures().empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "mssr_perf: " << e.what() << "\n";
        return 1;
    }
}
