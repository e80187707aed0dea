/**
 * mssr_serve: the simulation-as-a-service daemon. Listens on a
 * Unix-domain socket, speaks the length-prefixed mssr-serve-v1 JSON
 * protocol (docs/FORMATS.md), schedules submitted job batches over
 * the shared worker pool, and keeps the --ckpt-dir checkpoint store
 * resident so every batch the process ever serves warms up from the
 * same content-addressed cache.
 *
 *   mssr_serve --socket PATH [--journal FILE] [--results-out FILE]
 *              [--ckpt-dir DIR] [--jobs N] [--queue-max N]
 *              [--metrics-out FILE] [--log-level LVL] [--log-out FILE]
 *
 * Flags (see docs/TOOLS.md for the man page):
 *   --socket PATH      Unix-domain socket to listen on (or env
 *                      MSSR_SERVE_SOCKET). Required one way or the
 *                      other. A stale socket file from a dead server
 *                      is removed; a live one is a startup error.
 *   --journal FILE     mssr-serve-journal-v1 crash journal. With an
 *                      existing journal the server replays it first:
 *                      journaled completions are served from memory,
 *                      unfinished batches re-queue automatically.
 *   --results-out FILE server-side JSONL result stream (completion
 *                      order; the per-batch `results` request is the
 *                      deterministic submission-order view).
 *   --ckpt-dir DIR     warm checkpoint store shared across batches.
 *   --jobs N           worker threads (default: MSSR_JOBS or cores).
 *   --queue-max N      accepted-but-unfinished job bound; submits
 *                      past it get a `queue_full` reply (default 1024
 *                      or env MSSR_SERVE_QUEUE_MAX).
 *   --metrics-out FILE live Prometheus textfile, rewritten on every
 *                      request and job completion.
 *   --log-level LVL    error|warn|info|debug (default info).
 *   --log-out FILE     mirror log records to FILE as JSON lines.
 *   --version / --help
 *
 * Signals: SIGTERM and SIGINT begin a graceful drain -- in-flight
 * jobs finish and are journaled, queued work stays in the journal for
 * the next process -- then the server exits 0. Exit codes: 0 clean
 * shutdown, 1 runtime failure (socket/journal errors), 2 bad usage.
 */

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/argparse.hh"
#include "common/build_info.hh"
#include "common/frame.hh"
#include "common/log.hh"
#include "driver/serve_core.hh"

using namespace mssr;

namespace
{

/** write() end of the self-pipe; async-signal-safe shutdown wakeup. */
int gSignalPipe = -1;

extern "C" void
onSignal(int)
{
    const char byte = 1;
    // Best effort: a full pipe still wakes poll() via the pending byte.
    [[maybe_unused]] const ssize_t n = write(gSignalPipe, &byte, 1);
}

[[noreturn]] void
usage(const char *argv0, int code = 2)
{
    std::ostream &os = code == 0 ? std::cout : std::cerr;
    os << "usage: " << argv0
       << " --socket PATH [--journal FILE] [--results-out FILE]\n"
          "       [--ckpt-dir DIR] [--jobs N] [--queue-max N] "
          "[--metrics-out FILE]\n"
          "       [--log-level error|warn|info|debug] [--log-out FILE]\n"
          "\n"
          "Simulation-as-a-service daemon speaking mssr-serve-v1 over a\n"
          "Unix-domain socket (MSSR_SERVE_SOCKET names the default "
          "socket,\n"
          "MSSR_SERVE_QUEUE_MAX the default queue bound). SIGTERM/SIGINT\n"
          "drain gracefully; docs/TOOLS.md has the full man page.\n";
    std::exit(code);
}

/**
 * Claims the socket path. A leftover file from a crashed server is
 * unlinked; a file another live server still answers on is an error
 * (two daemons on one path would steal each other's clients).
 */
bool
claimSocketPath(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        std::cerr << "mssr_serve: socket path '" << path
                  << "' is too long\n";
        return false;
    }
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int rc =
        connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
    close(fd);
    if (rc == 0) {
        std::cerr << "mssr_serve: another server is live on '" << path
                  << "'\n";
        return false;
    }
    unlink(path.c_str()); // stale or absent either way
    return true;
}

/** One connection: frames in, frames out, until EOF or shutdown. */
void
serveConnection(int fd, ServeCore &core)
{
    core.noteConnection();
    // A wedged client must not hold the accept loop's worker forever.
    timeval tv{};
    tv.tv_sec = 30;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    try {
        std::string request;
        while (readFrame(fd, request)) {
            writeFrame(fd, core.handleRequest(request));
            if (core.shutdownRequested())
                break;
        }
    } catch (const FrameError &e) {
        logWarn("serve", "connection dropped: ", e.what());
    }
    close(fd);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath;
    if (const char *s = std::getenv("MSSR_SERVE_SOCKET"))
        socketPath = s;
    std::string logOutFile;
    ServeOptions opts;
    opts.queueMax = envU64("MSSR_SERVE_QUEUE_MAX", 1024, 1);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "mssr_serve: " << arg << " needs a value\n";
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (arg == "--socket") {
            socketPath = next();
        } else if (arg == "--journal") {
            opts.journalPath = next();
        } else if (arg == "--results-out") {
            opts.resultsPath = next();
        } else if (arg == "--ckpt-dir") {
            opts.ckptDir = next();
        } else if (arg == "--jobs") {
            std::string why;
            const auto v = parseFlagU64(next(), 1, 1024, why);
            if (!v) {
                std::cerr << "mssr_serve: --jobs wants 1..1024\n";
                usage(argv[0]);
            }
            opts.threads = static_cast<unsigned>(*v);
        } else if (arg == "--queue-max") {
            const auto v = parseU64(next());
            if (!v || *v < 1) {
                std::cerr << "mssr_serve: --queue-max wants a positive "
                             "integer\n";
                usage(argv[0]);
            }
            opts.queueMax = *v;
        } else if (arg == "--metrics-out") {
            opts.metricsPath = next();
        } else if (arg == "--log-level") {
            const std::string v = next();
            LogLevel level;
            if (!parseLogLevel(v, level)) {
                std::cerr << "mssr_serve: invalid value '" << v
                          << "' for --log-level (want error|warn|info|"
                             "debug)\n";
                usage(argv[0]);
            }
            Logger::global().setLevel(level);
        } else if (arg == "--log-out") {
            logOutFile = next();
        } else if (arg == "--version") {
            std::cout << "mssr_serve " << buildInfoLine() << "\n";
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else {
            std::cerr << "mssr_serve: unknown argument '" << arg << "'\n";
            usage(argv[0]);
        }
    }
    if (socketPath.empty()) {
        std::cerr << "mssr_serve: --socket (or MSSR_SERVE_SOCKET) is "
                     "required\n";
        usage(argv[0]);
    }
    if (const auto dup = findDuplicateOutputPath({
            {"--journal", &opts.journalPath},
            {"--results-out", &opts.resultsPath},
            {"--metrics-out", &opts.metricsPath},
            {"--log-out", &logOutFile},
        })) {
        std::cerr << "mssr_serve: " << dup->first << " and " << dup->second
                  << " point at the same file (the last writer would "
                     "clobber it)\n";
        return 2;
    }
    if (!logOutFile.empty() && !Logger::global().openJsonl(logOutFile)) {
        std::cerr << "mssr_serve: cannot open --log-out file '"
                  << logOutFile << "'\n";
        return 1;
    }

    if (!claimSocketPath(socketPath))
        return 1;

    int pipeFds[2];
    if (pipe(pipeFds) != 0) {
        std::cerr << "mssr_serve: pipe: " << std::strerror(errno) << "\n";
        return 1;
    }
    gSignalPipe = pipeFds[1];
    fcntl(pipeFds[1], F_SETFL, O_NONBLOCK);
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    signal(SIGPIPE, SIG_IGN); // torn clients surface as EPIPE, not death

    const int listenFd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0) {
        std::cerr << "mssr_serve: socket: " << std::strerror(errno)
                  << "\n";
        return 1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr)) != 0 ||
        listen(listenFd, 64) != 0) {
        std::cerr << "mssr_serve: cannot listen on '" << socketPath
                  << "': " << std::strerror(errno) << "\n";
        return 1;
    }

    int exitCode = 0;
    try {
        ServeCore core(opts);
        logInfo("serve", "listening on ", socketPath,
                core.resumedJobs()
                    ? " (" + std::to_string(core.resumedJobs()) +
                          " job(s) resumed from the journal)"
                    : std::string());

        pollfd fds[2] = {{listenFd, POLLIN, 0}, {pipeFds[0], POLLIN, 0}};
        while (!core.shutdownRequested()) {
            const int rc = poll(fds, 2, -1);
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                logWarn("serve", "poll: ", std::strerror(errno));
                break;
            }
            if (fds[1].revents) {
                logInfo("serve", "signal received: draining");
                core.beginShutdown();
                break;
            }
            if (!(fds[0].revents & POLLIN))
                continue;
            const int conn = accept(listenFd, nullptr, nullptr);
            if (conn < 0)
                continue;
            // One connection at a time: requests are sub-millisecond
            // (the heavy lifting happens on the scheduler's pool) and
            // serialized handling keeps the accept loop trivial.
            serveConnection(conn, core);
        }
        core.beginShutdown();
        core.finish(); // in-flight jobs land in the journal first
    } catch (const std::exception &e) {
        std::cerr << "mssr_serve: " << e.what() << "\n";
        exitCode = 1;
    }
    close(listenFd);
    unlink(socketPath.c_str());
    logInfo("serve", "exit ", exitCode);
    return exitCode;
}
