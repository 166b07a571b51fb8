/**
 * @file
 * rm-serve: the sweep-as-a-service daemon (docs/SERVE.md). Accepts
 * sweep-cell jobs as newline-delimited JSON over TCP, runs them
 * through the shared sweep runner, and never loses acknowledged work:
 * completed cells land in a durable JSONL journal (served from cache
 * across restarts), preempted cells keep engine snapshots and resume
 * with zero lost cycles, and SIGTERM/SIGINT drains gracefully.
 *
 *     rm-serve --port 7341 --journal serve.jsonl --snapshot-dir snaps
 *
 * The daemon prints one line, "rm-serve: listening on PORT", once it
 * accepts connections (PORT resolves --port 0 to the kernel's choice
 * — scripts parse this line). Drive it with rm-loadgen or any client
 * that speaks the protocol in docs/SERVE.md.
 */

#include <csignal>
#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/errors.hh"
#include "serve/net.hh"
#include "serve/service.hh"

namespace {

rm::ServeServer *g_server = nullptr;

void
onSignal(int)
{
    // shutdown() is a single atomic store: async-signal-safe, and the
    // accept loop notices within its 200ms poll tick.
    if (g_server != nullptr)
        g_server->shutdown();
}

int
usage()
{
    std::cerr <<
        "usage: rm-serve [options]\n"
        "  --host ADDR           listen address (default 127.0.0.1)\n"
        "  --port N              TCP port; 0 picks one (default 0)\n"
        "  --workers N           simulation worker threads (default 2)\n"
        "  --queue-limit N       max queued jobs before 'overloaded'\n"
        "  --client-limit N      max in-flight jobs per client\n"
        "  --retries N           retry attempts after a sim failure\n"
        "  --breaker-threshold N consecutive failures to quarantine a\n"
        "                        (workload, policy) pair; 0 disables\n"
        "  --breaker-cooldown-ms X  quarantine duration\n"
        "  --journal PATH        durable JSONL result journal\n"
        "  --fsync-every N       journal fsync cadence (default 1)\n"
        "  --snapshot-dir DIR    preemption snapshots (resume support)\n"
        "  --snapshot-every N    periodic snapshot cadence (cycles)\n"
        "  --seed N              base memory seed (default 1)\n"
        "  --no-lint             skip the static lint gate\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rm;
    ServeConfig config;
    ServeNetConfig net;

    try {
        using namespace cli;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto next = [&] { return value(argc, argv, i); };
            if (arg == "--host") {
                net.host = next();
            } else if (arg == "--port") {
                net.port = parseInt(arg, next());
            } else if (arg == "--workers") {
                config.workers = parseInt(arg, next());
            } else if (arg == "--queue-limit") {
                config.queueLimit = parseU64(arg, next());
            } else if (arg == "--client-limit") {
                config.perClientLimit = parseInt(arg, next());
            } else if (arg == "--retries") {
                config.retries = parseInt(arg, next());
            } else if (arg == "--breaker-threshold") {
                config.breakerThreshold = parseInt(arg, next());
            } else if (arg == "--breaker-cooldown-ms") {
                config.breakerCooldownMs = parseNumber(arg, next());
            } else if (arg == "--journal") {
                config.journalPath = next();
            } else if (arg == "--fsync-every") {
                config.journalFsyncEvery = parseInt(arg, next());
            } else if (arg == "--snapshot-dir") {
                config.snapshotDir = next();
            } else if (arg == "--snapshot-every") {
                config.snapshotEvery = parseU64(arg, next());
            } else if (arg == "--seed") {
                config.memSeed = parseU64(arg, next());
            } else if (arg == "--no-lint") {
                config.lint = false;
            } else {
                std::cerr << "rm-serve: unknown option '" << arg << "'\n";
                return usage();
            }
        }
    } catch (const UsageError &e) {
        std::cerr << "rm-serve: " << e.what() << '\n';
        return usage();
    }

    try {
        SweepService service(config);
        ServeServer server(service, net);
        g_server = &server;
        std::signal(SIGTERM, onSignal);
        std::signal(SIGINT, onSignal);
        // SIGPIPE would kill the daemon when a client disconnects
        // mid-response; sends already use MSG_NOSIGNAL, this covers
        // any straggler.
        std::signal(SIGPIPE, SIG_IGN);

        std::cout << "rm-serve: listening on " << server.port()
                  << std::endl;
        if (service.counters().journalReplayed > 0)
            std::cout << "rm-serve: replayed "
                      << service.counters().journalReplayed
                      << " journal records" << std::endl;
        server.run();
        g_server = nullptr;
        const ServeCounters c = service.counters();
        std::cout << "rm-serve: drained (completed " << c.completed
                  << ", cache hits " << c.cacheHits << ", preempted "
                  << c.preempted << ", failed " << c.failed << ")"
                  << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "rm-serve: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
