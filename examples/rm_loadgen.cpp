/**
 * @file
 * rm-loadgen: load generator for the rm-serve daemon (docs/SERVE.md).
 * Simulates N tenants, each on its own connection, submitting sweep
 * cells with Poisson arrivals; cells are drawn Zipf-distributed from a
 * (workload x policy) universe so a few hot cells dominate — the shape
 * that exercises the daemon's result cache and coalescing. Reports
 * throughput, cache-hit rate, rejection rate and p50/p99 latency.
 *
 *     rm-loadgen --port 7341 --tenants 2 --requests 16 --rate 20
 *
 * With --out PATH every distinct completed cell is written as a
 * "key<TAB>stats-json" line, sorted by key: two runs against the same
 * daemon (or a restarted one) must produce byte-identical files — the
 * serve soak test (scripts/serve_soak.sh) diffs them. A cell that
 * comes back with different stats than an earlier response to the
 * same key is a determinism violation and fails the run on the spot.
 *
 * Exit status: 0 all requests answered ok; 1 a job failed or was
 * rejected as bad; 2 transport error or response timeout; 3 only
 * admission rejections (overloaded/quarantined/shutting-down) beyond
 * any ok answers; 4 determinism mismatch.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/cli.hh"
#include "common/errors.hh"
#include "common/rng.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "serve/protocol.hh"
#include "workloads/suite.hh"

namespace {

using namespace rm;
using Clock = std::chrono::steady_clock;

struct Options
{
    std::string host = "127.0.0.1";
    int port = 0;
    int tenants = 2;
    int requests = 16;       // per tenant
    double ratePerSec = 20;  // Poisson arrival rate per tenant
    double zipfS = 0.9;
    std::uint64_t seed = 1;
    double highPriorityChance = 0.0;
    std::uint64_t maxCycles = 0;
    int universe = 8;  // distinct cells in the request mix
    double waitTimeoutSec = 120.0;
    std::string outPath;
    bool json = false;
};

/** Cross-tenant tallies; one mutex guards everything. */
struct Tally
{
    std::mutex mutex;
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t cached = 0;
    std::uint64_t failed = 0;
    std::uint64_t preempted = 0;
    std::uint64_t overloaded = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t shuttingDown = 0;
    std::uint64_t badRequest = 0;
    std::uint64_t transportErrors = 0;
    std::uint64_t timedOut = 0;
    bool mismatch = false;
    std::vector<double> latenciesMs;
    /** key -> canonical stats JSON, for --out and the determinism
     *  cross-check. */
    std::map<std::string, std::string> results;
};

int
connectTo(const std::string &host, int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::string &data)
{
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n = ::send(fd, data.data() + done,
                                 data.size() - done, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/** The (workload x policy) universe, hottest-first for Zipf ranking. */
std::vector<std::pair<std::string, std::string>>
buildUniverse(int size)
{
    const std::vector<std::string> workloads = occupancyLimitedSet();
    const std::vector<std::string> policies = {"baseline", "regmutex"};
    std::vector<std::pair<std::string, std::string>> cells;
    for (const std::string &w : workloads)
        for (const std::string &p : policies)
            cells.emplace_back(w, p);
    if (size > 0 && static_cast<std::size_t>(size) < cells.size())
        cells.resize(static_cast<std::size_t>(size));
    return cells;
}

/** CDF over ranks r with weight 1/(r+1)^s. */
std::vector<double>
zipfCdf(std::size_t n, double s)
{
    std::vector<double> cdf(n);
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), s);
        cdf[r] = total;
    }
    for (double &v : cdf)
        v /= total;
    return cdf;
}

void
runTenant(const Options &opt, int tenant, Tally &tally)
{
    const std::vector<std::pair<std::string, std::string>> universe =
        buildUniverse(opt.universe);
    const std::vector<double> cdf = zipfCdf(universe.size(), opt.zipfS);
    Rng rng(opt.seed + static_cast<std::uint64_t>(tenant) * 1000003ULL);

    const int fd = connectTo(opt.host, opt.port);
    if (fd < 0) {
        const std::lock_guard<std::mutex> lock(tally.mutex);
        ++tally.transportErrors;
        return;
    }

    std::mutex sentMutex;
    std::map<std::string, Clock::time_point> inFlight;
    std::atomic<int> pending{0};
    std::atomic<bool> readerDead{false};

    std::thread reader([&] {
        std::string buffer;
        char chunk[4096];
        for (;;) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t start = 0;
            for (std::size_t nl = buffer.find('\n', start);
                 nl != std::string::npos;
                 nl = buffer.find('\n', start)) {
                const std::string line =
                    buffer.substr(start, nl - start);
                start = nl + 1;
                if (line.empty())
                    continue;
                JobResponse response;
                try {
                    response = decodeJobResponse(parseJson(line));
                } catch (const std::exception &e) {
                    std::cerr << "rm-loadgen: bad response line: "
                              << e.what() << '\n';
                    continue;
                }
                const Clock::time_point now = Clock::now();
                Clock::time_point sentAt{};
                bool known = false;
                {
                    const std::lock_guard<std::mutex> lock(sentMutex);
                    const auto it = inFlight.find(response.id);
                    if (it != inFlight.end()) {
                        sentAt = it->second;
                        inFlight.erase(it);
                        known = true;
                    }
                }
                if (known)
                    pending.fetch_sub(1);
                const std::lock_guard<std::mutex> lock(tally.mutex);
                if (known)
                    tally.latenciesMs.push_back(
                        std::chrono::duration<double, std::milli>(
                            now - sentAt)
                            .count());
                switch (response.outcome) {
                  case JobOutcome::Ok: {
                    ++tally.ok;
                    if (response.cached)
                        ++tally.cached;
                    if (response.hasStats && !response.key.empty()) {
                        JsonWriter w;
                        statsToJson(w, response.stats);
                        std::string text = w.take();
                        const auto [it2, inserted] =
                            tally.results.emplace(response.key, text);
                        if (!inserted && it2->second != text) {
                            tally.mismatch = true;
                            std::cerr << "rm-loadgen: DETERMINISM "
                                         "MISMATCH for key "
                                      << response.key << '\n';
                        }
                    }
                    break;
                  }
                  case JobOutcome::Failed:
                    ++tally.failed;
                    break;
                  case JobOutcome::Preempted:
                    ++tally.preempted;
                    break;
                  case JobOutcome::Overloaded:
                    ++tally.overloaded;
                    break;
                  case JobOutcome::Quarantined:
                    ++tally.quarantined;
                    break;
                  case JobOutcome::ShuttingDown:
                    ++tally.shuttingDown;
                    break;
                  case JobOutcome::BadRequest:
                    ++tally.badRequest;
                    break;
                }
            }
            buffer.erase(0, start);
        }
        readerDead.store(true);
    });

    bool transportError = false;
    for (int n = 0; n < opt.requests && !transportError; ++n) {
        if (opt.ratePerSec > 0) {
            const double u = rng.uniformDouble();
            const double gapSec =
                -std::log(1.0 - u) / opt.ratePerSec;  // Poisson arrivals
            std::this_thread::sleep_for(
                std::chrono::duration<double>(gapSec));
        }
        const double pick = rng.uniformDouble();
        std::size_t rank = 0;
        while (rank + 1 < cdf.size() && pick > cdf[rank])
            ++rank;

        JobRequest request;
        request.client = "t";
        request.client += std::to_string(tenant);
        request.id = request.client;
        request.id += '-';
        request.id += std::to_string(n);
        request.workload = universe[rank].first;
        request.policy = universe[rank].second;
        request.priority =
            rng.chance(opt.highPriorityChance) ? 1 : 0;
        request.maxCycles = opt.maxCycles;
        {
            const std::lock_guard<std::mutex> lock(sentMutex);
            inFlight[request.id] = Clock::now();
        }
        pending.fetch_add(1);
        if (!sendAll(fd, encodeJobRequest(request) + "\n")) {
            transportError = true;
            {
                const std::lock_guard<std::mutex> lock(sentMutex);
                inFlight.erase(request.id);
            }
            pending.fetch_sub(1);
            break;
        }
        const std::lock_guard<std::mutex> lock(tally.mutex);
        ++tally.sent;
    }

    // Wait for the stragglers (responses complete out of order).
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               opt.waitTimeoutSec));
    while (pending.load() > 0 && !readerDead.load() &&
           Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    ::shutdown(fd, SHUT_RDWR);
    reader.join();
    ::close(fd);

    const std::lock_guard<std::mutex> lock(tally.mutex);
    if (transportError || (readerDead.load() && pending.load() > 0))
        ++tally.transportErrors;
    tally.timedOut += static_cast<std::uint64_t>(
        std::max(0, pending.load()));
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        using namespace cli;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto next = [&] { return value(argc, argv, i); };
            if (arg == "--host")
                opt.host = next();
            else if (arg == "--port")
                opt.port = parseInt(arg, next());
            else if (arg == "--tenants")
                opt.tenants = parseCount(arg, next());
            else if (arg == "--requests")
                opt.requests = parseInt(arg, next());
            else if (arg == "--rate")
                opt.ratePerSec = parseNumber(arg, next());
            else if (arg == "--zipf")
                opt.zipfS = parseNumber(arg, next());
            else if (arg == "--seed")
                opt.seed = parseU64(arg, next());
            else if (arg == "--priority-high")
                opt.highPriorityChance = parseNumber(arg, next());
            else if (arg == "--max-cycles")
                opt.maxCycles = parseU64(arg, next());
            else if (arg == "--universe")
                opt.universe = parseInt(arg, next());
            else if (arg == "--wait-timeout")
                opt.waitTimeoutSec = parseNumber(arg, next());
            else if (arg == "--out")
                opt.outPath = next();
            else if (arg == "--json")
                opt.json = true;
            else {
                std::cerr << "rm-loadgen: unknown option '" << arg << "'\n";
                return 2;
            }
        }
    } catch (const UsageError &e) {
        std::cerr << "rm-loadgen: " << e.what() << "\n";
        return 2;
    }
    if (opt.port <= 0) {
        std::cerr << "rm-loadgen: --port is required\n";
        return 2;
    }

    Tally tally;
    const Clock::time_point begin = Clock::now();
    std::vector<std::thread> tenants;
    tenants.reserve(static_cast<std::size_t>(opt.tenants));
    for (int t = 0; t < opt.tenants; ++t)
        tenants.emplace_back(
            [&opt, t, &tally] { runTenant(opt, t, tally); });
    for (std::thread &t : tenants)
        t.join();
    const double elapsedSec =
        std::chrono::duration<double>(Clock::now() - begin).count();

    std::lock_guard<std::mutex> lock(tally.mutex);
    std::sort(tally.latenciesMs.begin(), tally.latenciesMs.end());
    const std::uint64_t answered = tally.ok + tally.failed +
                                   tally.preempted + tally.overloaded +
                                   tally.quarantined +
                                   tally.shuttingDown + tally.badRequest;
    const double throughput =
        elapsedSec > 0 ? static_cast<double>(answered) / elapsedSec : 0;
    const double cacheHitRate =
        tally.ok > 0 ? static_cast<double>(tally.cached) /
                           static_cast<double>(tally.ok)
                     : 0.0;
    const std::uint64_t rejected =
        tally.overloaded + tally.quarantined + tally.shuttingDown;
    const double rejectionRate =
        answered > 0 ? static_cast<double>(rejected) /
                           static_cast<double>(answered)
                     : 0.0;
    const double p50 = percentile(tally.latenciesMs, 0.50);
    const double p99 = percentile(tally.latenciesMs, 0.99);

    if (!opt.outPath.empty()) {
        std::ofstream out(opt.outPath, std::ios::trunc);
        fatalIf(!out, "rm-loadgen: cannot write '", opt.outPath, "'");
        for (const auto &[key, stats] : tally.results)
            out << key << '\t' << stats << '\n';
    }

    if (opt.json) {
        JsonWriter w;
        w.beginObject();
        w.key("sent").value(tally.sent);
        w.key("answered").value(answered);
        w.key("ok").value(tally.ok);
        w.key("cached").value(tally.cached);
        w.key("failed").value(tally.failed);
        w.key("preempted").value(tally.preempted);
        w.key("overloaded").value(tally.overloaded);
        w.key("quarantined").value(tally.quarantined);
        w.key("shutting_down").value(tally.shuttingDown);
        w.key("bad_request").value(tally.badRequest);
        w.key("transport_errors").value(tally.transportErrors);
        w.key("timed_out").value(tally.timedOut);
        w.key("distinct_cells").value(
            static_cast<std::uint64_t>(tally.results.size()));
        w.key("elapsed_sec").value(elapsedSec);
        w.key("throughput_rps").value(throughput);
        w.key("cache_hit_rate").value(cacheHitRate);
        w.key("rejection_rate").value(rejectionRate);
        w.key("latency_p50_ms").value(p50);
        w.key("latency_p99_ms").value(p99);
        w.key("mismatch").value(tally.mismatch);
        w.endObject();
        std::cout << w.take() << std::endl;
    } else {
        std::cout << "rm-loadgen: sent " << tally.sent << ", ok "
                  << tally.ok << " (" << tally.cached << " cached), "
                  << "failed " << tally.failed << ", preempted "
                  << tally.preempted << ", rejected " << rejected
                  << ", transport errors " << tally.transportErrors
                  << "\n"
                  << "rm-loadgen: " << throughput << " resp/s, "
                  << "cache-hit rate " << 100.0 * cacheHitRate
                  << "%, rejection rate " << 100.0 * rejectionRate
                  << "%, latency p50 " << p50 << " ms, p99 " << p99
                  << " ms" << std::endl;
    }

    if (tally.mismatch)
        return 4;
    if (tally.transportErrors > 0 || tally.timedOut > 0)
        return 2;
    if (tally.failed > 0 || tally.badRequest > 0)
        return 1;
    if (rejected > 0)
        return 3;
    return 0;
}
