/**
 * @file
 * Error/diagnostic reporting in the gem5 spirit -- panic() for
 * simulator bugs, fatal() for user/configuration errors -- plus the
 * host-side structured logger: a thread-safe leveled sink
 * (error/warn/info/debug) that renders text to stderr and, when
 * configured, mirrors every record as one JSON object per line
 * (JSONL) to a log file.
 *
 * The logger is host-side observability only: nothing in the
 * simulated machine may depend on it, and enabling or disabling any
 * of it leaves every simulation artifact byte-identical
 * (ctest-enforced). Configuration comes from the environment
 * (MSSR_LOG = error|warn|info|debug, MSSR_LOG_OUT = JSONL path) or
 * from the CLI (--log-level/--log-out), which wins.
 */

#ifndef MSSR_COMMON_LOG_HH
#define MSSR_COMMON_LOG_HH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>

namespace mssr
{

namespace detail
{

inline void
formatInto(std::ostringstream &os)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &first, const Rest &...rest)
{
    os << first;
    formatInto(os, rest...);
}

template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

} // namespace detail

/** Thrown by panic(); tests catch it to assert on invariant violations. */
class SimPanic : public std::runtime_error
{
  public:
    explicit SimPanic(const std::string &what) : std::runtime_error(what) {}
};

/** Thrown by fatal(); indicates a user/configuration error. */
class SimFatal : public std::runtime_error
{
  public:
    explicit SimFatal(const std::string &what) : std::runtime_error(what) {}
};

/** Severity of a log record, most to least severe. */
enum class LogLevel
{
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** The level's lower-case name ("error", "warn", ...). */
const char *toString(LogLevel level);

/** Parses "error"/"warn"/"info"/"debug"; anything else is nullopt. */
bool parseLogLevel(const std::string &s, LogLevel &out);

/**
 * Thread-safe leveled logger. One process-wide instance (global())
 * backs warn()/inform()/logWarn()/... below; tests may construct
 * private instances. Text records go to stderr as
 * "<level>: [<subsys>] <msg>"; when a JSONL sink is open, every
 * emitted record is also appended to it as
 * {"ts": <unix seconds>, "level": "...", "subsys": "...", "msg": "..."}.
 *
 * Records above the configured level are dropped at the call site
 * with a single relaxed atomic load, so disabled debug logging costs
 * one branch per site.
 */
class Logger
{
  public:
    Logger() = default;
    ~Logger();

    Logger(const Logger &) = delete;
    Logger &operator=(const Logger &) = delete;

    /**
     * The process-wide logger. First use reads MSSR_LOG (level name;
     * garbage warns and keeps the default) and MSSR_LOG_OUT (JSONL
     * path) from the environment.
     */
    static Logger &global();

    LogLevel level() const
    {
        return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
    }

    void setLevel(LogLevel level)
    {
        level_.store(static_cast<int>(level), std::memory_order_relaxed);
    }

    /** True when records at @p level would be emitted. */
    bool enabled(LogLevel level) const { return level <= this->level(); }

    /**
     * Opens (truncating) @p path as the JSONL sink; every subsequent
     * record that passes the level filter is mirrored there. Returns
     * false (and logs a warning) when the file cannot be opened.
     */
    bool openJsonl(const std::string &path);

    /** Flushes and closes the JSONL sink (no-op when none is open). */
    void closeJsonl();

    /** Emits one record. @p subsys may be empty. */
    void log(LogLevel level, const std::string &subsys,
             const std::string &msg);

  private:
    std::atomic<int> level_{static_cast<int>(LogLevel::Info)};
    std::mutex mutex_;      //!< guards the JSONL stream
    std::ofstream jsonl_;
    bool jsonlOpen_ = false;
};

/**
 * Reports a condition that indicates a simulator bug. Throws so that
 * unit tests can verify invariants are enforced.
 */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    throw SimPanic(detail::concat("panic: ", args...));
}

/** Reports an unrecoverable user error (bad config, bad program). */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    throw SimFatal(detail::concat("fatal: ", args...));
}

/** Non-fatal warning (stderr + the JSONL sink when open). */
template <typename... Args>
void
warn(const Args &...args)
{
    Logger &log = Logger::global();
    if (log.enabled(LogLevel::Warn))
        log.log(LogLevel::Warn, {}, detail::concat(args...));
}

/** Informational message (stderr + the JSONL sink when open). */
template <typename... Args>
void
inform(const Args &...args)
{
    Logger &log = Logger::global();
    if (log.enabled(LogLevel::Info))
        log.log(LogLevel::Info, {}, detail::concat(args...));
}

/** @name Subsystem-tagged record emitters
 * The tag ("batch", "ckpt", "bench", "progress", ...) lands in the
 * text rendering and the JSONL "subsys" field, so downstream tooling
 * can filter one producer out of a merged log.
 */
/// @{
template <typename... Args>
void
logWarn(const std::string &subsys, const Args &...args)
{
    Logger &log = Logger::global();
    if (log.enabled(LogLevel::Warn))
        log.log(LogLevel::Warn, subsys, detail::concat(args...));
}

template <typename... Args>
void
logInfo(const std::string &subsys, const Args &...args)
{
    Logger &log = Logger::global();
    if (log.enabled(LogLevel::Info))
        log.log(LogLevel::Info, subsys, detail::concat(args...));
}

template <typename... Args>
void
logDebug(const std::string &subsys, const Args &...args)
{
    Logger &log = Logger::global();
    if (log.enabled(LogLevel::Debug))
        log.log(LogLevel::Debug, subsys, detail::concat(args...));
}
/// @}

/** panic() unless @p cond holds. */
#define mssr_assert(cond, ...)                                          \
    do {                                                                \
        if (!(cond))                                                    \
            ::mssr::panic("assertion '", #cond, "' failed at ",         \
                          __FILE__, ":", __LINE__, " ", ##__VA_ARGS__); \
    } while (0)

} // namespace mssr

#endif // MSSR_COMMON_LOG_HH
