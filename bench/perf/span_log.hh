/**
 * @file
 * In-memory span recorder for mssr_perf's traced runs.
 *
 * A span is one call from the benchmark into a layer of the simulator
 * (a `src/` module), or one phase the benchmark reads off that call's
 * own clocks (runSim's warm/build/detail split): name, layer, start,
 * end, parent span and job id. Spans of one job share its id. The
 * benchmark is single-threaded, so spans nest strictly and a span's
 * self time is its duration minus its direct children's.
 *
 * Spans stay in memory until the run ends; writeChromeTrace() then
 * emits Chrome trace_event JSON (opens in Perfetto / chrome://tracing)
 * and layerTotals() folds them into the per-layer count / total / self
 * table. With the log disabled every call is a no-op, which is how the
 * untraced passes of a traced run stay comparable to an untraced run.
 */

#ifndef MSSR_BENCH_PERF_SPAN_LOG_HH
#define MSSR_BENCH_PERF_SPAN_LOG_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mssr::perf
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    std::string name;
    std::string layer;
    double start = 0.0; //!< seconds since the log's epoch
    double end = 0.0;
    int parent = -1;    //!< index into spans(), -1 for a root
    long job = -1;      //!< job id shared by a job's spans, -1 for none
};

struct LayerTotals
{
    std::uint64_t count = 0;
    double totalS = 0.0;
    double selfS = 0.0;
};

class SpanLog
{
  public:
    SpanLog() : epoch_(Clock::now()) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Seconds since the log's epoch. */
    double
    at(Clock::time_point t) const
    {
        return secondsBetween(epoch_, t);
    }

    /** Opens a span as a child of the innermost open span; returns its
     *  index, or -1 when the log is disabled. */
    int open(const std::string &name, const std::string &layer,
             long job = -1);
    /** Ends span @p id (and any span still open inside it). */
    void close(int id);

    /** Records a finished span measured elsewhere under @p parent. */
    int add(const std::string &name, const std::string &layer, double start,
            double end, int parent, long job = -1);

    /** Innermost open span, -1 when none is open. */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-layer span count, summed duration and summed self time. */
    std::map<std::string, LayerTotals> layerTotals() const;

    /** Writes every span as a Chrome trace_event "X" event. */
    void writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span for the lifetime of the scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name,
               const std::string &layer, long job = -1)
        : log_(log), id_(log.open(name, layer, job))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

} // namespace mssr::perf

#endif // MSSR_BENCH_PERF_SPAN_LOG_HH
