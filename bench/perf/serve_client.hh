/**
 * @file
 * One mssr_serve daemon driven from the benchmark: spawned as a child
 * process over its own directory (crash journal, checkpoint store,
 * socket), talked to over a single mssr-serve-v1 connection, and
 * measured from /proc (CPU time, peak RSS) before it is shut down.
 *
 * Paths are used as given, so a relative directory keeps the socket
 * path inside the 108-byte sun_path limit however deep the checkout
 * sits; the daemon inherits the benchmark's working directory.
 */

#ifndef MSSR_BENCH_PERF_SERVE_CLIENT_HH
#define MSSR_BENCH_PERF_SERVE_CLIENT_HH

#include <cstdint>
#include <string>

#include <sys/types.h>

namespace mssr::perf
{

class ServeDaemon
{
  public:
    /** Spawns @p binary with one worker thread, `--journal` and
     *  `--ckpt-dir` under @p dir, which must exist and be empty. */
    ServeDaemon(const std::string &binary, const std::string &dir);
    /** Kills and reaps a daemon that was not shut down. */
    ~ServeDaemon();
    ServeDaemon(const ServeDaemon &) = delete;
    ServeDaemon &operator=(const ServeDaemon &) = delete;

    /** Connects and waits for the first `ping` reply; throws after
     *  @p timeoutS seconds or when the daemon exits first. */
    void waitReady(double timeoutS);

    /** One framed request/reply round trip on the connection. */
    std::string request(const std::string &json);

    /** utime + stime of the daemon so far (/proc/<pid>/stat). */
    double cpuSeconds() const;
    /** Peak resident set size (VmHWM of /proc/<pid>/status), KiB. */
    std::int64_t peakRssKb() const;
    /** Current size of the crash journal. */
    std::uint64_t journalBytes() const;

    /** Sends `shutdown`, closes the connection and reaps the daemon;
     *  returns its exit status. */
    int shutdown();

  private:
    std::string dir_;
    std::string socket_;
    pid_t pid_ = -1;
    int fd_ = -1;
};

} // namespace mssr::perf

#endif // MSSR_BENCH_PERF_SERVE_CLIENT_HH
