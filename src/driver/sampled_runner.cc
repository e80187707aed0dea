#include "driver/sampled_runner.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "common/log.hh"
#include "common/metrics.hh"
#include "common/mini_json.hh"

namespace mssr
{

double
tCritical95(std::uint64_t df)
{
    // Two-sided 95% Student-t critical values. Exact through df = 30,
    // then the standard coarse rows; beyond 120 the normal quantile
    // is correct to three decimals.
    static const double table[31] = {
        0.0,   12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306, 2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120, 2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064, 2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return std::numeric_limits<double>::quiet_NaN();
    if (df <= 30)
        return table[df];
    if (df <= 40)
        return 2.021;
    if (df <= 60)
        return 2.000;
    if (df <= 120)
        return 1.980;
    return 1.960;
}

SampleEstimate
estimateFrom(const std::vector<double> &xs)
{
    SampleEstimate e;
    e.n = xs.size();
    if (e.n == 0)
        return e; // no observations: everything stays NaN
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    e.mean = sum / static_cast<double>(e.n);
    if (e.n == 1)
        return e; // a single observation has no spread estimate
    double ss = 0.0;
    for (double x : xs)
        ss += (x - e.mean) * (x - e.mean);
    const double variance = ss / static_cast<double>(e.n - 1);
    e.stdErr = std::sqrt(variance / static_cast<double>(e.n));
    e.ci95 = tCritical95(e.n - 1) * e.stdErr;
    return e;
}

void
writeJson(std::ostream &os, const SampleEstimate &e)
{
    os << "{\"n\": " << e.n;
    if (e.n >= 1)
        os << ", \"mean\": " << e.mean;
    if (e.n >= 2)
        os << ", \"stderr\": " << e.stdErr << ", \"ci95\": " << e.ci95;
    os << "}";
}

SampleEstimate
readEstimate(const minijson::JsonValue &v)
{
    using minijson::JsonValue;
    SampleEstimate e;
    e.n = minijson::u64Field(v, "n");
    // The writer's ladder: mean from one observation on, the spread
    // pair from two.
    const auto has = [&](const char *key) { return v.object.count(key) != 0; };
    if (has("mean") != (e.n >= 1) || has("stderr") != (e.n >= 2) ||
        has("ci95") != (e.n >= 2))
        throw minijson::FormatError(
            "estimate fields inconsistent with its n");
    if (e.n >= 1)
        e.mean = minijson::field(v, "mean", JsonValue::Number).number;
    if (e.n >= 2) {
        e.stdErr = minijson::field(v, "stderr", JsonValue::Number).number;
        e.ci95 = minijson::field(v, "ci95", JsonValue::Number).number;
    }
    return e;
}

std::string
sampledJobError(const BatchJob &job)
{
    const SimConfig &cfg = job.config;
    if (!job.program)
        return "no program";
    if (cfg.samplePeriod == 0)
        return "samplePeriod must be nonzero";
    if (cfg.sampleWindow == 0 || cfg.sampleWindow > cfg.samplePeriod)
        return "sampleWindow must be in (0, samplePeriod]";
    if (cfg.fastForwardInsts != 0 || cfg.checkpoint)
        return "sampling already fast-forwards to each window; drop the "
               "explicit fast-forward/checkpoint";
    if (cfg.pipeview)
        return "per-window tracing is not supported";
    if (cfg.profiling)
        return "per-window profiling is not supported";
    if (job.inspect)
        return "inspect hooks would fire once per window, not per run";
    return "";
}

namespace
{

/** Rejects a config the sampled mode cannot honor, with a reason the
 *  CLI can print verbatim. */
void
validateSampledJob(const BatchJob &job)
{
    const std::string why = sampledJobError(job);
    if (!why.empty())
        throw std::invalid_argument("sampled job '" + job.name + "': " +
                                    why);
}

/** The jobs sampling one (program, period, maxInsts), and their scan. */
struct ScheduleGroup
{
    SampleSchedule sched;
    std::vector<std::size_t> jobIdx; //!< submission order; [0] owns the scan
};

/**
 * One WarmState and the windows that start from it. The first take()
 * builds it, every take() but the last copies it, and the last moves
 * it out, so the state is dropped after its last user. Workers may
 * call take() concurrently.
 */
class WarmShare
{
  public:
    /** @p window is the first window the state serves. */
    explicit WarmShare(const BatchJob &window) : window_(window) {}

    /** Whether a window of the same program and checkpoint under
     *  @p cfg starts from this state. */
    bool
    serves(const SimConfig &cfg) const
    {
        return WarmState::sameState(cfg, window_.config);
    }

    void addUser() { ++users_; }

    WarmState
    take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        mssr_assert(users_ > 0, "warm state taken by more windows than "
                                "it serves");
        if (!state_)
            state_.emplace(window_.config, *window_.program,
                           window_.config.checkpoint);
        if (--users_ > 0)
            return *state_;
        WarmState last = std::move(*state_);
        state_.reset();
        return last;
    }

  private:
    const BatchJob &window_;
    unsigned users_ = 0;
    std::mutex mutex_;
    std::optional<WarmState> state_;
};

/**
 * One job's merge: the pooled totals, the estimates and the window
 * list of its windows under @p cfg, moved in window order out of
 * @p windows (sched.windows() results). Deterministic whichever
 * worker lands the job's last window.
 */
SampledRunResult
mergeWindows(const SimConfig &cfg, const SampleSchedule &sched,
             RunResult *windows)
{
    SampledRunResult out;
    out.samplePeriod = cfg.samplePeriod;
    out.sampleWindow = cfg.sampleWindow;
    out.windows = sched.windows();
    out.totalInsts = sched.totalInsts;
    out.halted = sched.halted;

    std::vector<double> ipcXs;
    std::array<std::vector<double>, NumCpiCats> cpiXs;
    std::vector<double> reuseXs;
    for (std::uint64_t w = 0; w < sched.windows(); ++w) {
        RunResult &r = windows[w];
        out.cycles += r.cycles;
        out.insts += r.insts;
        out.cpi += r.cpi;
        out.funnel += r.funnel;
        out.dispatchWidth = r.dispatchWidth;
        out.hostSeconds += r.hostSeconds;
        ipcXs.push_back(r.ipc);
        if (r.insts > 0) {
            for (std::size_t c = 0; c < NumCpiCats; ++c)
                cpiXs[c].push_back(r.cpi.cpiContribution(
                    static_cast<CpiCat>(c), r.insts, r.dispatchWidth));
        }
        if (r.funnel.squashed > 0)
            reuseXs.push_back(static_cast<double>(r.funnel.reused) /
                              static_cast<double>(r.funnel.squashed));
        out.windowOffsets.push_back(w * cfg.samplePeriod);
        out.windowResults.push_back(std::move(r));
    }
    out.ipc = out.cycles ? static_cast<double>(out.insts) /
                               static_cast<double>(out.cycles)
                         : 0.0;
    out.ipcEst = estimateFrom(ipcXs);
    for (std::size_t c = 0; c < NumCpiCats; ++c)
        out.cpiEst[c] = estimateFrom(cpiXs[c]);
    out.reuseRateEst = estimateFrom(reuseXs);
    return out;
}

} // namespace

std::vector<SampledRunResult>
BatchRunner::runSampled(const std::vector<BatchJob> &jobs) const
{
    std::vector<SampledRunResult> results(jobs.size());
    if (jobs.empty())
        return results;
    for (const BatchJob &job : jobs)
        validateSampledJob(job);

    // Phase 0 -- the functional scans, shared like BatchRunner::run's
    // warm-up groups: jobs sampling the same program with the same
    // period over the same bound share one schedule (and therefore
    // one scan). Sequential on the calling thread; the scan is the
    // cheap part and scan errors (corrupt store file) should surface
    // before any detailed work is spent. A drain stops between scans:
    // every window would be skipped, so no job is reported.
    using ScheduleKey =
        std::tuple<const isa::Program *, std::uint64_t, std::uint64_t>;
    std::map<ScheduleKey, std::size_t> groupOf;
    std::vector<ScheduleGroup> groups;
    std::vector<std::size_t> jobGroup(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SimConfig &cfg = jobs[i].config;
        const ScheduleKey key{jobs[i].program, cfg.samplePeriod,
                              cfg.maxInsts};
        const auto [it, fresh] = groupOf.try_emplace(key, groups.size());
        if (fresh) {
            if (stopped())
                return results;
            groups.push_back({buildSampleSchedule(*jobs[i].program,
                                                  cfg.samplePeriod,
                                                  cfg.funcTier, ckptDir_,
                                                  cfg.maxInsts),
                              {}});
        }
        groups[it->second].jobIdx.push_back(i);
        jobGroup[i] = it->second;
    }

    // Phase 1 -- expand each job into its detailed-window jobs, job
    // by job (window jobs are indexed in that order: results and the
    // completion hook use it). The whole expansion runs as one batch,
    // so windows of different jobs interleave freely across the pool.
    std::vector<BatchJob> windowJobs;
    std::vector<std::size_t> firstWindowJob(jobs.size());
    std::vector<std::size_t> jobOf; // window job -> its sampled job
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SimConfig &cfg = jobs[i].config;
        const SampleSchedule &sched = groups[jobGroup[i]].sched;
        firstWindowJob[i] = windowJobs.size();
        jobOf.resize(windowJobs.size() + sched.windows(), i);
        for (std::uint64_t w = 0; w < sched.windows(); ++w) {
            const std::uint64_t offset = w * cfg.samplePeriod;
            BatchJob wj;
            wj.name = jobs[i].name + "#w" + std::to_string(w);
            wj.program = jobs[i].program;
            SimConfig wcfg = cfg;
            wcfg.samplePeriod = 0;
            wcfg.sampleWindow = 0;
            // The window never runs past the modeled program end --
            // with an unbounded run the program halts there anyway,
            // with a maxInsts bound the clamp enforces it.
            wcfg.maxInsts =
                std::min(cfg.sampleWindow, sched.totalInsts - offset);
            if (w == 0) {
                // The reset window: no prefix, nothing to warm from.
                wcfg.fastForwardInsts = 0;
                wcfg.checkpoint = nullptr;
                wcfg.warmBpu = false;
                wcfg.warmCaches = false;
            } else {
                wcfg.fastForwardInsts = offset;
                wcfg.checkpoint = &sched.checkpoints[w - 1];
                // History replay (predictor and caches) is the
                // sampling design's answer to cold-start bias inside
                // windows: always on.
                wcfg.warmBpu = true;
                wcfg.warmCaches = true;
            }
            wj.config = wcfg;
            windowJobs.push_back(std::move(wj));
        }
    }

    // The windows start window-major within each schedule: window w
    // of every job on it back to back. Those windows start from one
    // checkpoint, so the warm state it trains is built once per core
    // configuration and warm flags, copied into each window's core,
    // and dropped after its last user: at most about one state is
    // live per busy worker.
    std::deque<WarmShare> shares; // deque: a share never moves
    std::vector<std::size_t> shareOf(windowJobs.size());
    std::vector<std::size_t> order;
    order.reserve(windowJobs.size());
    for (const ScheduleGroup &g : groups) {
        for (std::uint64_t w = 0; w < g.sched.windows(); ++w) {
            const std::size_t firstShare = shares.size();
            for (const std::size_t i : g.jobIdx) {
                const std::size_t k = firstWindowJob[i] + w;
                std::size_t s = firstShare;
                while (s < shares.size() &&
                       !shares[s].serves(windowJobs[k].config))
                    ++s;
                if (s == shares.size())
                    shares.emplace_back(windowJobs[k]);
                shares[s].addUser();
                shareOf[k] = s;
                order.push_back(k);
            }
        }
    }

    // Phase 2 -- each job completes when its last window lands: the
    // worker that lands it merges the job's windows in window order
    // and reports it. A job with a window the stop flag skipped never
    // gets there and keeps its default result.
    Counter &windowsDone = MetricsRegistry::global().counter(
        "mssr_sampled_windows_done_total",
        "Detailed sample windows completed");
    std::vector<std::atomic<std::uint64_t>> windowsLeft(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        windowsLeft[i] = groups[jobGroup[i]].sched.windows();
    std::vector<RunResult> windowResults(windowJobs.size());
    const auto landed = [&](std::size_t k) {
        windowsDone.inc();
        const std::size_t i = jobOf[k];
        if (windowsLeft[i].fetch_sub(1) != 1)
            return; // the job's other windows are still out
        const ScheduleGroup &group = groups[jobGroup[i]];
        SampledRunResult &out = results[i];
        out = mergeWindows(jobs[i].config, group.sched,
                           &windowResults[firstWindowJob[i]]);
        if (group.jobIdx.front() == i) {
            out.scanHostSeconds = group.sched.hostSeconds;
            out.scanDiskHits = group.sched.diskHits;
        }
        if (sampledJobDone_)
            sampledJobDone_(i, out);
    };
    runInOrder(
        windowJobs, order, windowResults,
        [&](std::size_t k) { return shares[shareOf[k]].take(); }, landed);
    return results;
}

} // namespace mssr
