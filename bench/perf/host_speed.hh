/**
 * @file
 * Host-speed reference for mssr_perf.
 *
 * A shared host changes the speed it gives this machine by tens of
 * percent, both for minutes at a time and from one second to the next,
 * which a timing of the simulator alone cannot tell apart from a change
 * to the simulator. HostSpeed times a fixed piece of work that belongs
 * to the benchmark, not to the simulator, so its time moves only with
 * the host. Like the simulator, the work is large, branchy code: each
 * step calls one of 8192 distinct small functions (about 1.5 MB of
 * code), picked by a hash through a table, and each updates a 1 MiB
 * table. Small loops, pointer chases included, were tried and slow down
 * far less than the simulator when the host does; this tracks it.
 *
 * mssr_perf samples it between passes and, about every kIntervalS, at
 * job and batch boundaries inside them, and states each pass's timings
 * in reference seconds: the time the pass would have taken at the host
 * speed where one sample takes kReferenceS. The time spent sampling is
 * kept out of every timing: now() is a clock that stops while a sample
 * runs.
 */

#ifndef MSSR_BENCH_PERF_HOST_SPEED_HH
#define MSSR_BENCH_PERF_HOST_SPEED_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "span_log.hh"

namespace mssr::perf
{

class HostSpeed
{
  public:
    /** One sample's wall time, in seconds, on the 4-vCPU 2.1 GHz Xeon
     *  the benchmark was sized on, when that host was quiet. */
    static constexpr double kReferenceS = 0.01;
    /** Time between samples, on the now() clock. */
    static constexpr double kIntervalS = 0.1;

    HostSpeed();

    /** Runs the reference work once. */
    void sample();
    /** Whether kIntervalS has passed since the last sample. */
    bool due() const { return now() - lastS_ >= kIntervalS; }

    /** Seconds since construction, not counting time spent sampling. */
    double now() const;
    /** Wall time spent sampling so far, in seconds. */
    double spentS() const { return spentS_; }

    /** Samples taken so far. */
    std::size_t count() const { return samplesS_.size(); }
    /** Every sample's wall time, in seconds, in the order taken. */
    const std::vector<double> &samples() const { return samplesS_; }
    /** Reference seconds per host second over samples [@p from,
     *  count()): kReferenceS over their mean. */
    double factorSince(std::size_t from) const;

  private:
    /** The reference work; returns its wall time in seconds. */
    double work();

    Clock::time_point epoch_;
    double spentS_ = 0.0; //!< wall time spent sampling
    double lastS_ = 0.0;  //!< now() at the end of the last sample
    std::vector<double> samplesS_;
    std::vector<std::uint64_t> table_;
    std::vector<std::uint64_t (*)(std::uint64_t, std::uint64_t *)> ops_;
    std::uint64_t state_ = 1; //!< picks each step's function
};

} // namespace mssr::perf

#endif // MSSR_BENCH_PERF_HOST_SPEED_HH
