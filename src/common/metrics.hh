/**
 * @file
 * Host-side metrics registry and live progress exporter.
 *
 * The registry holds atomic counters, gauges and histograms, named in
 * Prometheus style (mssr_batch_jobs_done_total, ...), registered
 * lazily by subsystem (BatchRunner, checkpoint store, sampled
 * engine). A snapshot can be rendered as a Prometheus text
 * exposition and atomically rewritten (tmp + rename, the
 * serialize.cc pattern) to a `--metrics-out` textfile, which
 * mssr_run, the bench harness and mssr_serve all write.
 *
 * ProgressReporter is the heartbeat: every `--progress-every` seconds
 * it emits a one-line TTY progress report (done/total, ETA, kips)
 * through the structured logger and refreshes the textfile. All of it
 * is host-side only: counters observe the simulation, never steer it,
 * so simulated results are byte-identical with telemetry on or off
 * (ctest-enforced).
 */

#ifndef MSSR_COMMON_METRICS_HH
#define MSSR_COMMON_METRICS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

namespace mssr
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    void resetForTest() { value_.store(0, std::memory_order_relaxed); }
    std::atomic<std::uint64_t> value_{0};
};

/** Instantaneous level that can move both ways (queue depth, RSS). */
class Gauge
{
  public:
    void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
    void sub(std::int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }

    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    void resetForTest() { value_.store(0, std::memory_order_relaxed); }
    std::atomic<std::int64_t> value_{0};
};

/**
 * Fixed-bucket latency histogram sized for job host times: bucket
 * upper bounds 10ms .. 5min plus +Inf, cumulative in the Prometheus
 * convention, with exact sum and count.
 */
class HistogramMetric
{
  public:
    static constexpr std::array<double, 6> bounds()
    {
        return {0.01, 0.1, 1.0, 10.0, 60.0, 300.0};
    }

    void observe(double v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const;

    /** Cumulative count of observations <= bounds()[i]. */
    std::uint64_t cumulative(std::size_t i) const;

  private:
    friend class MetricsRegistry;
    void resetForTest();
    std::array<std::atomic<std::uint64_t>, 6> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sumBits_{0}; //!< double, bit-cast via CAS
};

/**
 * Name -> metric map. Registration is idempotent (the same name
 * returns the same instance; re-registering under a different kind
 * panics) and returned references stay valid for the registry's
 * lifetime. All mutation of registered metrics is lock-free; the
 * registry lock only guards registration and snapshotting.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry every subsystem registers into. */
    static MetricsRegistry &global();

    Counter &counter(const std::string &name, const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &help);
    HistogramMetric &histogram(const std::string &name,
                               const std::string &help);

    /** Prometheus text exposition, metrics sorted by name. */
    void writeProm(std::ostream &os) const;

    /**
     * Atomically rewrites @p path with writeProm() output: the
     * snapshot is written to "<path>.tmp" and renamed over the target,
     * so a concurrent scraper never sees a torn file. Returns false
     * (after a warning) on I/O failure.
     */
    bool writePromFile(const std::string &path) const;

    /** Zeroes every registered metric (unit tests share global()). */
    void resetForTest();

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Entry
    {
        Kind kind;
        std::size_t index;
        std::string help;
    };

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
    // deques: element addresses stay stable across registration.
    std::deque<Counter> counters_;
    std::deque<Gauge> gauges_;
    std::deque<HistogramMetric> histograms_;
};

/** Peak resident set size of this process in KiB (getrusage). */
std::int64_t peakRssKb();

/** What a ProgressReporter watches and where it reports. */
struct ProgressOptions
{
    /** Heartbeat period; 0 disables the TTY heartbeat thread. */
    double everySeconds = 0.0;
    /** Prometheus textfile path; empty disables the textfile. */
    std::string metricsPath;
    /** Job-source tag for the progress line ("batch", bench name...). */
    std::string label = "batch";
    /** Jobs this batch will complete (for done/total and ETA). */
    std::uint64_t totalJobs = 0;
};

/**
 * Heartbeat thread over the global registry. While alive it wakes
 * every `everySeconds` to log one "[progress]" line -- done/total
 * jobs, percent, elapsed, ETA, aggregate kips, all deltas relative to
 * construction -- and rewrite the metrics textfile. finish() (also
 * run by the destructor) stops the thread, emits a final line and
 * writes the final snapshot, so a consumer always sees the end state
 * even when the run is shorter than one period.
 */
class ProgressReporter
{
  public:
    explicit ProgressReporter(ProgressOptions opts);
    ~ProgressReporter();

    ProgressReporter(const ProgressReporter &) = delete;
    ProgressReporter &operator=(const ProgressReporter &) = delete;

    /** Stops the heartbeat; final report + final textfile write. */
    void finish();

  private:
    void heartbeat();
    void report(bool final);

    ProgressOptions opts_;
    std::chrono::steady_clock::time_point start_;
    Counter &jobsDone_;
    Counter &insts_;
    std::uint64_t jobsDoneAtStart_;
    std::uint64_t instsAtStart_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    bool finished_ = false;
    std::thread thread_;
};

} // namespace mssr

#endif // MSSR_COMMON_METRICS_HH
