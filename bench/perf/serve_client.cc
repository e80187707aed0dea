#include "serve_client.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/frame.hh"
#include "span_log.hh"

namespace mssr::perf
{

ServeDaemon::ServeDaemon(const std::string &binary, const std::string &dir)
    : dir_(dir), socket_(dir + "/sock")
{
    if (socket_.size() >= sizeof(sockaddr_un::sun_path))
        throw std::runtime_error("serve socket path '" + socket_ +
                                 "' is too long");
    const std::string journal = dir + "/journal";
    const std::string ckpt = dir + "/ckpt";
    std::vector<std::string> args = {binary,    "--socket",   socket_,
                                     "--jobs",  "1",          "--journal",
                                     journal,   "--ckpt-dir", ckpt,
                                     "--log-level", "warn"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0)
        throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    if (pid_ == 0) {
        // The daemon must not outlive a benchmark that is killed; its
        // stdout would land in the benchmark's, so it goes to stderr
        // with the daemon's own diagnostics.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        dup2(2, 1);
        execv(binary.c_str(), argv.data());
        _exit(127);
    }
}

ServeDaemon::~ServeDaemon()
{
    if (fd_ >= 0)
        close(fd_);
    if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
    }
}

void
ServeDaemon::waitReady(double timeoutS)
{
    const auto start = Clock::now();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_.c_str(), sizeof(addr.sun_path) - 1);
    while (fd_ < 0) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("mssr_serve exited during start-up");
        }
        const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::runtime_error(std::string("socket: ") +
                                     std::strerror(errno));
        if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) == 0) {
            fd_ = fd;
            break;
        }
        close(fd);
        if (secondsBetween(start, Clock::now()) > timeoutS)
            throw std::runtime_error("mssr_serve did not listen on '" +
                                     socket_ + "'");
        // Retry without sleeping: start-up takes milliseconds, and a
        // sleep's granularity would show in the measured start-up.
        std::this_thread::yield();
    }
    const std::string pong = request("{\"type\": \"ping\"}");
    if (pong.find("\"ok\": true") == std::string::npos)
        throw std::runtime_error("unexpected ping reply: " + pong);
}

std::string
ServeDaemon::request(const std::string &json)
{
    writeFrame(fd_, json);
    std::string reply;
    if (!readFrame(fd_, reply))
        throw std::runtime_error("mssr_serve closed the connection");
    return reply;
}

double
ServeDaemon::cpuSeconds() const
{
    std::ifstream is("/proc/" + std::to_string(pid_) + "/stat");
    std::string line;
    std::getline(is, line);
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const auto paren = line.rfind(')');
    if (paren == std::string::npos)
        throw std::runtime_error("cannot read mssr_serve CPU time");
    std::istringstream fields(line.substr(paren + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i)
        if (i >= 14)
            ticks += std::stod(field);
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::int64_t
ServeDaemon::peakRssKb() const
{
    std::ifstream is("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(is, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoll(line.substr(6));
    throw std::runtime_error("cannot read mssr_serve VmHWM");
}

std::uint64_t
ServeDaemon::journalBytes() const
{
    return std::filesystem::file_size(dir_ + "/journal");
}

int
ServeDaemon::shutdown()
{
    request("{\"type\": \"shutdown\"}");
    close(fd_);
    fd_ = -1;
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

} // namespace mssr::perf
