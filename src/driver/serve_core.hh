/**
 * @file
 * ServeCore: the simulation-as-a-service engine behind tools/
 * mssr_serve. The socket layer stays in the tool; everything that
 * defines the service lives here so tests can drive it in-process:
 *
 *  - the mssr-serve-v1 request dispatcher (handleRequest maps one
 *    request JSON object to one reply JSON object, never throwing --
 *    every invalid input becomes a structured {"ok": false, "error",
 *    "message"} reply),
 *  - the bounded job queue with backpressure (`queue_full` replies
 *    once the accepted-but-unfinished job count would pass queueMax),
 *  - the scheduler thread that pops batches in submission order and
 *    fans their jobs over BatchRunner's workers: a batch's detailed
 *    jobs in one run() call and its sampled jobs in one runSampled()
 *    call, so design points on one program share warm-ups, sampling
 *    scans and window warm states as mssr_run's do. One --ckpt-dir
 *    checkpoint store is shared across every batch the process ever
 *    serves (the "warm fleet": a resubmitted sweep skips its
 *    warm-ups), and
 *  - the mssr-serve-journal-v1 crash journal: batches are journaled on
 *    accept and jobs once their results are final (append + fsync;
 *    a sampled job once its last window lands, so a drain journals no
 *    partly run job), so a process killed or drained mid-sweep
 *    restarts, replays, marks the journaled completions done and
 *    re-queues exactly the remainder.
 *
 * Result records are one-line JSON objects in the BENCH_batch.json
 * per-result schema family, restricted to the deterministic fields
 * (no host times, no cache-hit flags): the same sweep submitted twice
 * -- or resumed across a crash -- fetches byte-identical record sets.
 * docs/FORMATS.md sections "mssr-serve-v1" and
 * "mssr-serve-journal-v1" are the normative specs.
 */

#ifndef MSSR_DRIVER_SERVE_CORE_HH
#define MSSR_DRIVER_SERVE_CORE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/mini_json.hh"
#include "common/serve_journal.hh"
#include "driver/job_record.hh"

namespace mssr
{

/** Service configuration (tool flags map 1:1 onto these). */
struct ServeOptions
{
    std::string journalPath;  //!< empty = run without crash journal
    std::string resultsPath;  //!< server-side JSONL stream (completion order)
    std::string ckptDir;      //!< warm checkpoint store (empty = in-memory)
    std::string metricsPath;  //!< live Prometheus textfile (empty = off)
    unsigned threads = 0;     //!< worker pool width (0 = defaultThreads())
    std::uint64_t queueMax = 1024; //!< accepted-but-unfinished job bound
    /** Test hook: leave the scheduler un-started so queue/cancel/
     *  backpressure behavior can be exercised without racing it. */
    bool startScheduler = true;
};

class ServeCore
{
  public:
    /**
     * Replays the journal (when configured and present), re-queues
     * unfinished batches, opens the journal for append and starts the
     * scheduler. Throws std::runtime_error on an unusable or corrupt
     * journal -- refusing to serve beats silently re-running finished
     * work.
     */
    explicit ServeCore(ServeOptions opts);
    ~ServeCore();
    ServeCore(const ServeCore &) = delete;
    ServeCore &operator=(const ServeCore &) = delete;

    /**
     * Dispatches one mssr-serve-v1 request and returns the reply, both
     * one-line JSON objects. Thread-safe; never throws -- malformed
     * JSON, unknown types and invalid jobs come back as structured
     * error replies.
     */
    std::string handleRequest(const std::string &requestJson);

    /**
     * Drain plus stop: in-flight jobs and sampled windows finish,
     * and the jobs that complete are journaled; not-yet-started jobs,
     * and sampled jobs with a window not yet started, stay queued for
     * the next process. Called by the tool on SIGTERM/SIGINT and by
     * the `shutdown` request.
     */
    void beginShutdown();

    /** True once a `shutdown` request or beginShutdown() happened. */
    bool shutdownRequested() const;

    /** Blocks until the scheduler thread has exited (after
     *  beginShutdown()) and rewrites the final metrics textfile. */
    void finish();

    /** Jobs accepted but not yet finished (queued + in flight). */
    std::uint64_t pendingJobs() const;

    /** Jobs whose completion was replayed from the journal. */
    std::uint64_t resumedJobs() const { return resumedJobs_; }

    /** Connection accounting for the socket layer's counter. */
    void noteConnection();

  private:
    enum class BatchState { Queued, Running, Done, Failed, Cancelled };

    struct Batch
    {
        std::uint64_t id = 0;
        std::string label;
        BatchState state = BatchState::Queued;
        std::vector<ServeJobSpec> specs;
        std::vector<std::string> records; //!< empty string = not done
        std::size_t done = 0;
        std::string error; //!< Failed: what the batch died with
    };

    static const char *stateName(BatchState s);

    std::string handleSubmit(const minijson::JsonValue &req);
    std::string handleStatus(const minijson::JsonValue &req);
    std::string handleResults(const minijson::JsonValue &req);
    std::string handleCancel(const minijson::JsonValue &req);
    std::string handleDrain();
    std::string handleShutdown();
    std::string handlePing();

    void schedulerLoop();
    void runBatch(Batch &b);
    void recordDone(Batch &b, std::size_t jobIdx,
                    const std::string &record);
    void loadJournal();
    void writeMetrics();
    std::string batchStatusJson(const Batch &b) const; // callers hold mu_
    Batch *findBatch(std::uint64_t id);                // callers hold mu_

    ServeOptions opts_;
    ServeJournal journal_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Batch> batches_;       //!< deque: &batch stays stable
    std::uint64_t nextBatchId_ = 1;
    /** Atomic so pendingJobs() and gauge updates read it lock-free;
     *  writers still hold mu_ (the count must agree with batches_). */
    std::atomic<std::uint64_t> pendingJobs_{0};
    bool draining_ = false;
    std::atomic<bool> stopping_{false};  //!< BatchRunner stop flag
    std::atomic<std::uint64_t> resumedJobs_{0};
    /** Serializes writePromFile's tmp-file dance (scheduler and
     *  connection threads both rewrite the live textfile). */
    std::mutex metricsMu_;

    std::thread scheduler_;
};

} // namespace mssr

#endif // MSSR_DRIVER_SERVE_CORE_HH
