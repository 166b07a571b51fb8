#ifndef PERFBENCH_DAEMON_HH
#define PERFBENCH_DAEMON_HH

/**
 * @file
 * Process and socket plumbing for the serve-closed workload: start a
 * real rm-serve daemon, talk newline-delimited JSON to it over
 * loopback, read its peak resident memory, and stop it.
 */

#include <cstdint>
#include <string>

#include <sys/types.h>

namespace perfbench {

/** Peak resident set (VmHWM) of process @p pid in KiB; 0 when unreadable. */
std::uint64_t peakRssKb(pid_t pid);

/** A running rm-serve process. Stops (SIGTERM, then SIGKILL) on destruction. */
class Daemon
{
  public:
    /**
     * Spawn @p binary on an ephemeral loopback port with a fresh
     * journal at @p journal and wait for its "listening on PORT" line.
     * Throws std::runtime_error when it does not come up in time.
     */
    Daemon(const std::string &binary, const std::string &journal);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int port() const { return port_; }

    /** Peak resident set of the daemon so far, in KiB. */
    std::uint64_t peakRssKb() const { return perfbench::peakRssKb(pid_); }

    /** Graceful stop: SIGTERM, wait, SIGKILL after a grace period. */
    void stop();

  private:
    pid_t pid_ = -1;
    int port_ = 0;
};

/** One blocking loopback connection carrying newline-terminated lines. */
class LineConnection
{
  public:
    explicit LineConnection(int port);
    ~LineConnection();

    LineConnection(const LineConnection &) = delete;
    LineConnection &operator=(const LineConnection &) = delete;

    /** Send @p line plus a newline; throws on a transport error. */
    void send(const std::string &line);
    /** Next line without its newline; throws on EOF or error. */
    std::string readLine();

  private:
    int fd_ = -1;
    std::string buffer_;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HH
