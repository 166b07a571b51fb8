#include "daemon.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace perfbench {

namespace {

constexpr int kStartTimeoutMs = 30000;
constexpr int kStopGraceMs = 10000;

std::runtime_error
sysError(const std::string &what)
{
    return std::runtime_error(what + ": " + std::strerror(errno));
}

} // namespace

Daemon::Daemon(const std::string &binary, const std::string &journal)
{
    int out[2];
    if (::pipe(out) != 0)
        throw sysError("pipe");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    std::string port_flag = "--port", port_value = "0";
    std::string journal_flag = "--journal", journal_value = journal;
    std::string bin = binary;
    char *argv[] = {bin.data(), port_flag.data(), port_value.data(),
                    journal_flag.data(), journal_value.data(), nullptr};
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    if (rc != 0) {
        ::close(out[0]);
        pid_ = -1;
        errno = rc;
        throw sysError("spawn " + binary);
    }

    // The daemon prints "rm-serve: listening on PORT" once it accepts
    // connections; nothing else is read from its stdout.
    std::string text;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kStartTimeoutMs);
    while (text.find('\n') == std::string::npos) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        pollfd p{out[0], POLLIN, 0};
        if (left.count() <= 0 ||
            ::poll(&p, 1, static_cast<int>(left.count())) <= 0)
            break;
        char chunk[256];
        const ssize_t n = ::read(out[0], chunk, sizeof(chunk));
        if (n <= 0)
            break;
        text.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(out[0]);
    const std::string marker = "listening on ";
    const std::size_t at = text.find(marker);
    if (at == std::string::npos) {
        stop();
        throw std::runtime_error("rm-serve did not start: '" + text + "'");
    }
    port_ = std::atoi(text.c_str() + at + marker.size());
}

Daemon::~Daemon()
{
    stop();
}

std::uint64_t
peakRssKb(pid_t pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

void
Daemon::stop()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kStopGraceMs);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
}

LineConnection::LineConnection(int port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        throw sysError("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd_);
        throw sysError("connect 127.0.0.1:" + std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

LineConnection::~LineConnection()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
LineConnection::send(const std::string &line)
{
    const std::string data = line + "\n";
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n = ::send(fd_, data.data() + done,
                                 data.size() - done, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw sysError("send");
        done += static_cast<std::size_t>(n);
    }
}

std::string
LineConnection::readLine()
{
    for (;;) {
        const std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            return line;
        }
        char chunk[16384];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            throw sysError("recv");
        if (n == 0)
            throw std::runtime_error("daemon closed the connection");
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace perfbench
