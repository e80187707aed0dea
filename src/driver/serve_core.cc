#include "driver/serve_core.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/frame.hh"
#include "common/log.hh"
#include "common/metrics.hh"

namespace mssr
{

namespace
{

using minijson::JsonValue;

/** Lazily-registered service instrumentation (docs/FORMATS.md). */
struct ServeMetrics
{
    Counter &requests;
    Counter &requestErrors;
    Counter &connections;
    Counter &batches;
    Counter &jobs;
    Counter &jobsDone;
    Counter &jobsResumed;
    Gauge &queueDepth;

    static ServeMetrics &
    get()
    {
        MetricsRegistry &reg = MetricsRegistry::global();
        static ServeMetrics m{
            reg.counter("mssr_serve_requests_total",
                        "mssr-serve-v1 requests handled"),
            reg.counter("mssr_serve_request_errors_total",
                        "Requests answered with a structured error reply"),
            reg.counter("mssr_serve_connections_total",
                        "Client connections accepted"),
            reg.counter("mssr_serve_batches_total",
                        "Job batches accepted into the queue"),
            reg.counter("mssr_serve_jobs_total",
                        "Jobs accepted into the queue"),
            reg.counter("mssr_serve_jobs_done_total",
                        "Jobs completed and journaled by the server"),
            reg.counter("mssr_serve_jobs_resumed_total",
                        "Job completions replayed from the journal at "
                        "startup"),
            reg.gauge("mssr_serve_queue_depth",
                      "Jobs accepted but not yet finished"),
        };
        return m;
    }
};

/** {"ok": false, ...}: the one reply shape every failure maps onto. */
std::string
errorReply(const std::string &code, const std::string &message)
{
    return "{\"ok\": false, \"error\": \"" + code + "\", \"message\": \"" +
           jsonEscape(message) + "\"}";
}

bool
isErrorReply(const std::string &reply)
{
    return reply.rfind("{\"ok\": false", 0) == 0;
}

/** Required non-negative integer request field. */
std::uint64_t
requestU64(const JsonValue &obj, const std::string &key)
{
    const auto it = obj.object.find(key);
    if (it == obj.object.end())
        throw std::invalid_argument("missing field '" + key + "'");
    return jsonU64(key, it->second);
}

} // namespace

const char *
ServeCore::stateName(BatchState s)
{
    switch (s) {
      case BatchState::Queued:    return "queued";
      case BatchState::Running:   return "running";
      case BatchState::Done:      return "done";
      case BatchState::Failed:    return "failed";
      case BatchState::Cancelled: return "cancelled";
    }
    return "?";
}

ServeCore::ServeCore(ServeOptions opts) : opts_(std::move(opts))
{
    if (!opts_.ckptDir.empty())
        std::filesystem::create_directories(opts_.ckptDir);
    if (!opts_.journalPath.empty()) {
        if (std::filesystem::exists(opts_.journalPath) &&
            std::filesystem::file_size(opts_.journalPath) > 0)
            loadJournal();
        if (!journal_.open(opts_.journalPath))
            throw std::runtime_error("cannot open journal '" +
                                     opts_.journalPath + "'");
    }
    if (!opts_.resultsPath.empty()) {
        std::ofstream probe(opts_.resultsPath, std::ios::app);
        if (!probe)
            throw std::runtime_error("cannot open results file '" +
                                     opts_.resultsPath + "'");
    }
    writeMetrics();
    if (opts_.startScheduler)
        scheduler_ = std::thread(&ServeCore::schedulerLoop, this);
}

ServeCore::~ServeCore()
{
    beginShutdown();
    finish();
}

void
ServeCore::loadJournal()
{
    const std::vector<ServeJournalEvent> events =
        ServeJournal::load(opts_.journalPath);
    ServeMetrics &m = ServeMetrics::get();
    for (const ServeJournalEvent &ev : events) {
        if (ev.event == "submit") {
            Batch b;
            b.id = ev.batch;
            b.label = ev.label;
            for (const JsonValue &spec : ev.jobs) {
                try {
                    b.specs.push_back(parseJobSpec(spec));
                } catch (const std::exception &e) {
                    throw std::runtime_error(
                        "journal batch " + std::to_string(ev.batch) +
                        " carries an invalid job spec: " + e.what());
                }
            }
            b.records.resize(b.specs.size());
            pendingJobs_ += b.specs.size();
            nextBatchId_ = std::max(nextBatchId_, b.id + 1);
            m.batches.inc();
            m.jobs.inc(b.specs.size());
            batches_.push_back(std::move(b));
        } else if (ev.event == "done") {
            Batch *b = findBatch(ev.batch);
            if (!b || ev.job >= b->records.size() ||
                !b->records[ev.job].empty())
                throw std::runtime_error(
                    "journal done line references unknown batch " +
                    std::to_string(ev.batch) + " job " +
                    std::to_string(ev.job));
            b->records[ev.job] = ev.record;
            b->done++;
            pendingJobs_--;
            resumedJobs_++;
            m.jobsDone.inc();
            m.jobsResumed.inc();
        } else if (ev.event == "cancel" || ev.event == "fail") {
            Batch *b = findBatch(ev.batch);
            if (!b)
                throw std::runtime_error(
                    "journal " + ev.event +
                    " line references unknown batch " +
                    std::to_string(ev.batch));
            pendingJobs_ -= b->specs.size() - b->done;
            b->state = ev.event == "cancel" ? BatchState::Cancelled
                                            : BatchState::Failed;
            b->error = ev.message;
        }
    }
    std::size_t resumable = 0;
    for (Batch &b : batches_) {
        if (b.state == BatchState::Queued && b.done == b.specs.size())
            b.state = BatchState::Done;
        resumable += b.state == BatchState::Queued ? 1 : 0;
    }
    logInfo("serve", "journal replayed: ", batches_.size(), " batch(es), ",
            resumedJobs_.load(), " completed job(s), ", resumable,
            " batch(es) re-queued, ", pendingJobs_.load(),
            " job(s) pending");
}

std::string
ServeCore::handleRequest(const std::string &requestJson)
{
    ServeMetrics &m = ServeMetrics::get();
    m.requests.inc();
    std::string reply;
    try {
        const JsonValue req = minijson::JsonParser(requestJson).parse();
        if (req.kind != JsonValue::Object)
            throw std::invalid_argument("request is not a JSON object");
        const auto it = req.object.find("type");
        if (it == req.object.end() ||
            it->second.kind != JsonValue::String)
            throw std::invalid_argument("request needs a string 'type'");
        const std::string &type = it->second.string;
        if (type == "submit")
            reply = handleSubmit(req);
        else if (type == "status")
            reply = handleStatus(req);
        else if (type == "results")
            reply = handleResults(req);
        else if (type == "cancel")
            reply = handleCancel(req);
        else if (type == "drain")
            reply = handleDrain();
        else if (type == "shutdown")
            reply = handleShutdown();
        else if (type == "ping")
            reply = handlePing();
        else
            reply = errorReply("unknown_type",
                               "no such request type '" + type + "'");
    } catch (const std::exception &e) {
        reply = errorReply("bad_request", e.what());
    }
    if (isErrorReply(reply))
        m.requestErrors.inc();
    writeMetrics();
    return reply;
}

std::string
ServeCore::handleSubmit(const JsonValue &req)
{
    const auto jobsIt = req.object.find("jobs");
    if (jobsIt == req.object.end() ||
        jobsIt->second.kind != JsonValue::Array ||
        jobsIt->second.array.empty())
        return errorReply("bad_request",
                          "submit needs a non-empty 'jobs' array");
    std::string label;
    if (const auto it = req.object.find("label"); it != req.object.end()) {
        if (it->second.kind != JsonValue::String)
            return errorReply("bad_request", "'label' must be a string");
        label = it->second.string;
    }
    std::vector<ServeJobSpec> specs;
    specs.reserve(jobsIt->second.array.size());
    for (std::size_t i = 0; i < jobsIt->second.array.size(); ++i) {
        try {
            specs.push_back(parseJobSpec(jobsIt->second.array[i]));
        } catch (const std::exception &e) {
            return errorReply("invalid_job", "job " + std::to_string(i) +
                                                 ": " + e.what());
        }
        if (const std::string why = validateJobSpec(specs.back());
            !why.empty())
            return errorReply("invalid_job",
                              "job " + std::to_string(i) + " ('" +
                                  specs.back().name + "'): " + why);
    }

    ServeMetrics &m = ServeMetrics::get();
    const std::size_t n = specs.size();
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (draining_)
            return errorReply("draining",
                              "server is draining; new batches are not "
                              "accepted");
        if (pendingJobs_ + specs.size() > opts_.queueMax)
            return errorReply(
                "queue_full",
                "queue limit " + std::to_string(opts_.queueMax) +
                    " jobs: " + std::to_string(pendingJobs_.load()) +
                    " pending, " + std::to_string(specs.size()) +
                    " requested");
        id = nextBatchId_++;
        Batch b;
        b.id = id;
        b.label = label;
        b.records.resize(specs.size());
        b.specs = std::move(specs);
        // Journal before the batch becomes visible: an acknowledged
        // submit must survive a crash.
        std::vector<std::string> canon;
        canon.reserve(b.specs.size());
        for (const ServeJobSpec &s : b.specs)
            canon.push_back(canonicalJobSpec(s));
        journal_.appendSubmit(id, label, canon);
        pendingJobs_ += b.specs.size();
        m.batches.inc();
        m.jobs.inc(b.specs.size());
        logInfo("serve", "batch ", id, " accepted: ", b.specs.size(),
                " job(s)", label.empty() ? "" : " ('" + label + "')");
        batches_.push_back(std::move(b));
    }
    cv_.notify_all();
    return "{\"ok\": true, \"batch\": " + std::to_string(id) +
           ", \"jobs\": " + std::to_string(n) + ", \"label\": \"" +
           jsonEscape(label) + "\"}";
}

std::string
ServeCore::batchStatusJson(const Batch &b) const
{
    std::ostringstream os;
    os << "\"batch\": " << b.id << ", \"label\": \"" << jsonEscape(b.label)
       << "\", \"state\": \"" << stateName(b.state) << "\", \"jobs\": "
       << b.specs.size() << ", \"done\": " << b.done;
    if (b.state == BatchState::Failed)
        os << ", \"message\": \"" << jsonEscape(b.error) << "\"";
    return os.str();
}

std::string
ServeCore::handleStatus(const JsonValue &req)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (req.object.count("batch")) {
        const std::uint64_t id = requestU64(req, "batch");
        const Batch *b = findBatch(id);
        if (!b)
            return errorReply("unknown_batch",
                              "no batch " + std::to_string(id));
        return "{\"ok\": true, " + batchStatusJson(*b) + "}";
    }
    std::ostringstream os;
    std::size_t running = 0;
    for (const Batch &b : batches_)
        running += b.state == BatchState::Running ? 1 : 0;
    os << "{\"ok\": true, \"draining\": " << (draining_ ? "true" : "false")
       << ", \"queue_depth\": " << pendingJobs_.load() << ", \"running\": "
       << running << ", \"batches\": [";
    for (std::size_t i = 0; i < batches_.size(); ++i)
        os << (i ? ", " : "") << "{" << batchStatusJson(batches_[i])
           << "}";
    os << "]}";
    return os.str();
}

std::string
ServeCore::handleResults(const JsonValue &req)
{
    const std::uint64_t id = requestU64(req, "batch");
    std::uint64_t since = 0;
    if (req.object.count("since"))
        since = requestU64(req, "since");
    std::lock_guard<std::mutex> lk(mu_);
    const Batch *b = findBatch(id);
    if (!b)
        return errorReply("unknown_batch", "no batch " + std::to_string(id));
    if (since > b->records.size())
        return errorReply("bad_request",
                          "'since' is past the batch's " +
                              std::to_string(b->records.size()) +
                              " job(s)");
    // Stream the longest contiguous completed run from `since`, in
    // submission order: out-of-order completions are held back until
    // the gap fills, which is what makes a client's streamed JSONL
    // byte-identical run to run.
    std::ostringstream os;
    os << "{\"ok\": true, \"batch\": " << id << ", \"state\": \""
       << stateName(b->state) << "\", \"jobs\": " << b->specs.size()
       << ", \"done\": " << b->done << ", \"records\": [";
    std::uint64_t next = since;
    for (; next < b->records.size() && !b->records[next].empty(); ++next)
        os << (next == since ? "" : ", ") << b->records[next];
    os << "], \"next\": " << next << "}";
    return os.str();
}

std::string
ServeCore::handleCancel(const JsonValue &req)
{
    const std::uint64_t id = requestU64(req, "batch");
    std::lock_guard<std::mutex> lk(mu_);
    Batch *b = findBatch(id);
    if (!b)
        return errorReply("unknown_batch", "no batch " + std::to_string(id));
    if (b->state != BatchState::Queued)
        return errorReply("not_cancellable",
                          "batch " + std::to_string(id) + " is " +
                              stateName(b->state) +
                              "; only queued batches can be cancelled");
    const std::uint64_t remaining = b->specs.size() - b->done;
    b->state = BatchState::Cancelled;
    pendingJobs_ -= remaining;
    journal_.appendCancel(id);
    logInfo("serve", "batch ", id, " cancelled (", remaining,
            " job(s) dropped)");
    return "{\"ok\": true, \"batch\": " + std::to_string(id) +
           ", \"state\": \"cancelled\", \"cancelled\": " +
           std::to_string(remaining) + "}";
}

std::string
ServeCore::handleDrain()
{
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
    logInfo("serve", "draining: no new batches accepted, ",
            pendingJobs_.load(), " job(s) still pending");
    return "{\"ok\": true, \"draining\": true, \"queue_depth\": " +
           std::to_string(pendingJobs_.load()) + "}";
}

std::string
ServeCore::handleShutdown()
{
    beginShutdown();
    return "{\"ok\": true, \"draining\": true}";
}

std::string
ServeCore::handlePing()
{
    return "{\"ok\": true, \"schema\": \"mssr-serve-v1\"}";
}

void
ServeCore::beginShutdown()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        draining_ = true;
    }
    stopping_.store(true);
    cv_.notify_all();
}

bool
ServeCore::shutdownRequested() const
{
    return stopping_.load();
}

void
ServeCore::finish()
{
    if (scheduler_.joinable())
        scheduler_.join();
    writeMetrics();
}

std::uint64_t
ServeCore::pendingJobs() const
{
    return pendingJobs_.load();
}

void
ServeCore::noteConnection()
{
    ServeMetrics::get().connections.inc();
}

ServeCore::Batch *
ServeCore::findBatch(std::uint64_t id)
{
    for (Batch &b : batches_)
        if (b.id == id)
            return &b;
    return nullptr;
}

void
ServeCore::schedulerLoop()
{
    for (;;) {
        Batch *next = nullptr;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] {
                if (stopping_.load())
                    return true;
                for (Batch &b : batches_)
                    if (b.state == BatchState::Queued)
                        return true;
                return false;
            });
            if (stopping_.load())
                return;
            for (Batch &b : batches_)
                if (b.state == BatchState::Queued) {
                    next = &b;
                    break;
                }
            next->state = BatchState::Running;
        }
        try {
            runBatch(*next);
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lk(mu_);
            next->state = BatchState::Failed;
            next->error = e.what();
            pendingJobs_ -= next->specs.size() - next->done;
            journal_.appendFail(next->id, next->error);
            logWarn("serve", "batch ", next->id, " failed: ", e.what());
        }
        writeMetrics();
    }
}

void
ServeCore::runBatch(Batch &b)
{
    // The batch's specs and id are immutable once accepted, and its
    // records are written only through recordDone (which locks) by the
    // runner started below, so the partitioning can read them without
    // mu_.
    logInfo("serve", "batch ", b.id, " running: ",
            b.specs.size() - b.done, " job(s) to go");

    // One program per distinct (workload, scale) in the batch -- jobs
    // of a sweep share their program, which is what lets BatchRunner
    // share warm-up prefixes, sampling scans and window warm states
    // across them.
    std::map<std::tuple<std::string, unsigned, unsigned, std::uint64_t>,
             std::size_t>
        programOf;
    std::deque<isa::Program> programs; // deque: pointers stay stable
    const auto programFor = [&](const ServeJobSpec &s) {
        const auto key = std::make_tuple(s.workload, s.scale, s.iters,
                                         s.seed);
        const auto [it, fresh] =
            programOf.try_emplace(key, programs.size());
        if (fresh)
            programs.push_back(
                workloads::buildWorkload(s.workload, specScale(s)));
        return &programs[it->second];
    };

    // The jobs left to run, detailed and sampled apart, each beside
    // its index in the batch.
    struct Part
    {
        std::vector<BatchJob> jobs;
        std::vector<std::size_t> batchIdx;
    };
    Part detailed, sampled;
    for (std::size_t i = 0; i < b.specs.size(); ++i) {
        if (!b.records[i].empty())
            continue; // journal-resumed completion: never re-run
        const ServeJobSpec &s = b.specs[i];
        Part &part = s.samplePeriod != 0 ? sampled : detailed;
        part.jobs.push_back({s.name, programFor(s), specConfig(s), {}});
        part.batchIdx.push_back(i);
    }

    // Each job is journaled from its worker as soon as it completes.
    BatchRunner runner(opts_.threads);
    runner.setCheckpointDir(opts_.ckptDir);
    runner.setStopFlag(&stopping_);
    if (!detailed.jobs.empty()) {
        runner.setJobDone([&](std::size_t li, const RunResult &r) {
            const std::size_t ji = detailed.batchIdx[li];
            recordDone(b, ji, serveResultRecord(b.specs[ji], r));
        });
        runner.run(detailed.jobs);
        runner.setJobDone({});
    }
    if (!sampled.jobs.empty()) {
        runner.setSampledJobDone(
            [&](std::size_t li, const SampledRunResult &r) {
                const std::size_t ji = sampled.batchIdx[li];
                recordDone(b, ji, serveSampledRecord(b.specs[ji], r));
            });
        runner.runSampled(sampled.jobs);
    }

    std::lock_guard<std::mutex> lk(mu_);
    if (b.done == b.specs.size()) {
        b.state = BatchState::Done;
        logInfo("serve", "batch ", b.id, " done: ", b.done, " job(s)");
    } else {
        // Shutdown drained us mid-batch: the journal holds what
        // finished; the rest is the next process's work.
        b.state = BatchState::Queued;
        logInfo("serve", "batch ", b.id, " interrupted: ", b.done, "/",
                b.specs.size(),
                " job(s) journaled; the rest resume on restart");
    }
}

void
ServeCore::recordDone(Batch &b, std::size_t jobIdx,
                      const std::string &record)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        // Durability before visibility: the fsync'd journal line and
        // the results stream happen before clients can fetch the
        // record.
        journal_.appendDone(b.id, jobIdx, record);
        if (!opts_.resultsPath.empty()) {
            std::ofstream os(opts_.resultsPath, std::ios::app);
            os << record << "\n";
        }
        b.records[jobIdx] = record;
        b.done++;
        pendingJobs_--;
        ServeMetrics::get().jobsDone.inc();
    }
    writeMetrics();
}

void
ServeCore::writeMetrics()
{
    ServeMetrics::get().queueDepth.set(
        static_cast<std::int64_t>(pendingJobs_.load()));
    if (opts_.metricsPath.empty())
        return;
    std::lock_guard<std::mutex> lk(metricsMu_);
    MetricsRegistry::global().writePromFile(opts_.metricsPath);
}

} // namespace mssr
