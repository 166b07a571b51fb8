/**
 * @file
 * rm-serve robustness: the protocol codec round-trips and rejects
 * hostile requests, and SweepService (the socket-free daemon core)
 * honours its contracts — admission control with retry-after hints,
 * deterministic retry reseed, circuit-breaker quarantine with
 * half-open probing, zero-lost-work priority preemption, coalescing,
 * graceful drain, and the durable journal cache across a restart.
 *
 * Service tests drive the ServeConfig::runCell seam so a "cell" is a
 * scripted stub (blockable, cancellable, failable on demand); the
 * journal test runs the real simulator end to end.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/json.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"

namespace rm {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kGamma = 0x9e3779b9ULL;

JobRequest
makeRequest(const std::string &id, const std::string &workload,
            const std::string &policy, const std::string &client = "c",
            int priority = 0)
{
    JobRequest request;
    request.id = id;
    request.client = client;
    request.workload = workload;
    request.policy = policy;
    request.priority = priority;
    return request;
}

/** One-shot response capture; get() fails the test on a 10s stall
 *  instead of hanging the suite. */
struct Capture
{
    std::promise<JobResponse> promise;
    std::future<JobResponse> future = promise.get_future();

    SweepService::Callback cb()
    {
        return [this](const JobResponse &r) { promise.set_value(r); };
    }

    JobResponse get()
    {
        if (future.wait_for(10s) != std::future_status::ready)
            throw std::runtime_error("no response within 10s");
        return future.get();
    }
};

SweepResult
okResult(std::uint64_t cycles = 100)
{
    SweepResult result;
    result.status = SweepStatus::Ok;
    result.attempts = 1;
    result.run.aggregate.cycles = cycles;
    result.run.aggregate.instructions = 2 * cycles;
    return result;
}

SweepResult
statusResult(SweepStatus status, const std::string &error)
{
    SweepResult result;
    result.status = status;
    result.error = error;
    return result;
}

// --- Protocol ---------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsThroughJson)
{
    JobRequest request = makeRequest("job-1", "BFS", "regmutex", "t0", 3);
    request.arch = "half-RF";
    request.maxCycles = 12345;

    const JobRequest back =
        decodeJobRequest(parseJson(encodeJobRequest(request)));
    EXPECT_EQ(back.id, "job-1");
    EXPECT_EQ(back.client, "t0");
    EXPECT_EQ(back.workload, "BFS");
    EXPECT_EQ(back.policy, "regmutex");
    EXPECT_EQ(back.arch, "half-RF");
    EXPECT_EQ(back.priority, 3);
    EXPECT_EQ(back.maxCycles, 12345u);
}

TEST(ServeProtocol, ResponseRoundTripsThroughJson)
{
    JobResponse response;
    response.id = "job-2";
    response.outcome = JobOutcome::Overloaded;
    response.error = "queue full (4 jobs)";
    response.key = "BFS|baseline|GTX480|deadbeef";
    response.attempts = 1;
    response.retryAfterMs = 250.5;

    const JobResponse back =
        decodeJobResponse(parseJson(encodeJobResponse(response)));
    EXPECT_EQ(back.id, "job-2");
    EXPECT_EQ(back.outcome, JobOutcome::Overloaded);
    EXPECT_EQ(back.error, "queue full (4 jobs)");
    EXPECT_EQ(back.key, response.key);
    EXPECT_FALSE(back.cached);
    EXPECT_DOUBLE_EQ(back.retryAfterMs, 250.5);
    EXPECT_FALSE(back.hasStats);
}

TEST(ServeProtocol, ResponseCarriesStatsWhenPresent)
{
    JobResponse response;
    response.id = "job-3";
    response.outcome = JobOutcome::Ok;
    response.hasStats = true;
    response.stats.cycles = 777;
    response.stats.instructions = 1554;

    const JobResponse back =
        decodeJobResponse(parseJson(encodeJobResponse(response)));
    ASSERT_TRUE(back.hasStats);
    EXPECT_EQ(back.stats.cycles, 777u);
    EXPECT_EQ(back.stats.instructions, 1554u);
}

TEST(ServeProtocol, HostileRequestsThrowSchemaErrors)
{
    // Off-the-wire documents must fail loudly, never half-decode.
    EXPECT_THROW(decodeJobRequest(parseJson("[1,2]")), JsonSchemaError);
    EXPECT_THROW(
        decodeJobRequest(parseJson(R"({"id":"x","policy":"p"})")),
        JsonSchemaError);
    EXPECT_THROW(
        decodeJobRequest(parseJson(R"({"id":"x","workload":"w"})")),
        JsonSchemaError);
    EXPECT_THROW(
        decodeJobRequest(parseJson(
            R"({"workload":"w","policy":"p","priority":"high"})")),
        JsonSchemaError);
    EXPECT_THROW(
        decodeJobResponse(parseJson(R"({"id":"x","status":"maybe"})")),
        JsonSchemaError);
}

TEST(ServeProtocol, ArchConfigRejectsUnknownLabels)
{
    EXPECT_EQ(findArch("GTX480").config.registersPerSm,
              gtx480Config().registersPerSm);
    EXPECT_EQ(findArch("half-RF").config.registersPerSm,
              halfRegisterFile(gtx480Config()).registersPerSm);
    EXPECT_THROW(findArch("Pascal"), UnknownArchError);
}

// --- Admission control ------------------------------------------------

TEST(ServeService, UnknownArchIsAnsweredBadRequestSynchronously)
{
    ServeConfig config;
    config.workers = 1;
    config.runCell = [](const SweepCase &, const SweepOptions &) {
        return okResult();
    };
    SweepService service(config);

    JobRequest request = makeRequest("bad", "BFS", "baseline");
    request.arch = "Pascal";
    Capture capture;
    service.submit(request, capture.cb());
    const JobResponse response = capture.get();
    EXPECT_EQ(response.outcome, JobOutcome::BadRequest);
    EXPECT_NE(response.error.find("Pascal"), std::string::npos);
    EXPECT_EQ(service.counters().badRequests, 1u);
}

TEST(ServeService, ArchSpellingsShareOneCacheKey)
{
    std::atomic<int> runs{0};
    ServeConfig config;
    config.workers = 1;
    config.runCell = [&](const SweepCase &cell, const SweepOptions &) {
        ++runs;
        return okResult(static_cast<std::uint64_t>(
            cell.config.registersPerSm));
    };
    SweepService service(config);

    // Two spellings of the same cell: one simulation, one key.
    JobRequest lower = makeRequest("lower", "BFS", "baseline");
    lower.arch = "half-rf";
    Capture first;
    service.submit(lower, first.cb());
    const JobResponse cold = first.get();
    ASSERT_EQ(cold.outcome, JobOutcome::Ok);
    EXPECT_FALSE(cold.cached);
    EXPECT_NE(cold.key.find("|half-RF|"), std::string::npos) << cold.key;

    JobRequest canonical = makeRequest("canonical", "BFS", "baseline");
    canonical.arch = "half-RF";
    Capture second;
    service.submit(canonical, second.cb());
    const JobResponse hit = second.get();
    ASSERT_EQ(hit.outcome, JobOutcome::Ok);
    EXPECT_TRUE(hit.cached);
    EXPECT_EQ(hit.key, cold.key);
    EXPECT_EQ(runs.load(), 1);

    // The table is total: every factory label is served...
    JobRequest kepler = makeRequest("kepler", "BFS", "baseline");
    kepler.arch = "Kepler";
    Capture third;
    service.submit(kepler, third.cb());
    const JobResponse keplerResponse = third.get();
    EXPECT_EQ(keplerResponse.outcome, JobOutcome::Ok);
    ASSERT_TRUE(keplerResponse.hasStats);
    EXPECT_EQ(keplerResponse.stats.cycles,
              static_cast<std::uint64_t>(keplerConfig().registersPerSm));

    // ...and a label outside it is refused before submit() returns.
    JobRequest pascal = makeRequest("pascal", "BFS", "baseline");
    pascal.arch = "Pascal";
    Capture fourth;
    service.submit(pascal, fourth.cb());
    ASSERT_EQ(fourth.future.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(fourth.get().outcome, JobOutcome::BadRequest);
    EXPECT_EQ(runs.load(), 2);
}

TEST(ServeService, OverloadAndClientCapRejectWithRetryAfter)
{
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    ServeConfig config;
    config.workers = 1;
    config.queueLimit = 1;
    config.perClientLimit = 1;
    config.runCell = [&](const SweepCase &, const SweepOptions &opts) {
        started.store(true);
        while (!release.load()) {
            if (opts.gpu.control.cancel->load())
                return statusResult(SweepStatus::Preempted, "preempted");
            std::this_thread::sleep_for(1ms);
        }
        return okResult();
    };
    SweepService service(config);

    // a1 occupies the single worker; wait until it is off the queue so
    // the later submissions see the true backlog.
    Capture a1;
    service.submit(makeRequest("a1", "BFS", "baseline", "alice"),
                   a1.cb());
    while (!started.load())
        std::this_thread::sleep_for(1ms);

    // alice is at her in-flight cap — distinct cell, same client.
    Capture a2;
    service.submit(makeRequest("a2", "BFS", "regmutex", "alice"),
                   a2.cb());
    const JobResponse capped = a2.get();
    EXPECT_EQ(capped.outcome, JobOutcome::Overloaded);
    EXPECT_NE(capped.error.find("in flight"), std::string::npos);
    EXPECT_GT(capped.retryAfterMs, 0.0);

    // bob fills the one queue slot; carol finds the queue full.
    Capture b1;
    service.submit(makeRequest("b1", "BFS", "regmutex", "bob"),
                   b1.cb());
    Capture c1;
    service.submit(makeRequest("c1", "SAD", "baseline", "carol"),
                   c1.cb());
    const JobResponse overloaded = c1.get();
    EXPECT_EQ(overloaded.outcome, JobOutcome::Overloaded);
    EXPECT_NE(overloaded.error.find("queue full"), std::string::npos);
    EXPECT_GT(overloaded.retryAfterMs, 0.0);

    release.store(true);
    EXPECT_EQ(a1.get().outcome, JobOutcome::Ok);
    EXPECT_EQ(b1.get().outcome, JobOutcome::Ok);

    const ServeCounters counters = service.counters();
    EXPECT_EQ(counters.admitted, 2u);
    EXPECT_EQ(counters.rejectedClientCap, 1u);
    EXPECT_EQ(counters.rejectedOverload, 1u);
    EXPECT_EQ(counters.completed, 2u);
}

// --- Retry / backoff --------------------------------------------------

TEST(ServeService, RetriesReseedDeterministicallyThenSucceed)
{
    std::mutex seedsMutex;
    std::vector<std::uint64_t> seeds;
    ServeConfig config;
    config.workers = 1;
    config.retries = 2;
    config.backoffBaseMs = 1.0;
    config.memSeed = 41;
    config.runCell = [&](const SweepCase &, const SweepOptions &opts) {
        const std::lock_guard<std::mutex> lock(seedsMutex);
        seeds.push_back(opts.gpu.memSeed);
        if (seeds.size() < 3)
            return statusResult(SweepStatus::SimFailed, "flaky");
        return okResult();
    };
    SweepService service(config);

    Capture capture;
    service.submit(makeRequest("r1", "BFS", "baseline"), capture.cb());
    const JobResponse response = capture.get();
    EXPECT_EQ(response.outcome, JobOutcome::Ok);
    EXPECT_EQ(response.attempts, 3);

    // The reseed is the sweep runner's contract: base + attempt * gamma
    // — the same cell retried is still a deterministic simulation.
    const std::lock_guard<std::mutex> lock(seedsMutex);
    ASSERT_EQ(seeds.size(), 3u);
    EXPECT_EQ(seeds[0], 41u);
    EXPECT_EQ(seeds[1], 41u + kGamma);
    EXPECT_EQ(seeds[2], 41u + 2 * kGamma);
    EXPECT_EQ(service.counters().retries, 2u);
    EXPECT_EQ(service.counters().failed, 0u);
}

TEST(ServeService, ExhaustedRetriesFailTheJob)
{
    std::atomic<int> calls{0};
    ServeConfig config;
    config.workers = 1;
    config.retries = 1;
    config.backoffBaseMs = 1.0;
    config.runCell = [&](const SweepCase &, const SweepOptions &) {
        ++calls;
        return statusResult(SweepStatus::Deadlocked, "hung at cycle 9");
    };
    SweepService service(config);

    Capture capture;
    service.submit(makeRequest("f1", "BFS", "baseline"), capture.cb());
    const JobResponse response = capture.get();
    EXPECT_EQ(response.outcome, JobOutcome::Failed);
    EXPECT_EQ(response.attempts, 2);
    EXPECT_NE(response.error.find("hung"), std::string::npos);
    EXPECT_EQ(calls.load(), 2);
    EXPECT_EQ(service.counters().failed, 1u);
}

TEST(ServeService, DeterministicFailuresNeverRetry)
{
    std::atomic<int> calls{0};
    ServeConfig config;
    config.workers = 1;
    config.retries = 5;
    config.runCell = [&](const SweepCase &, const SweepOptions &) {
        ++calls;
        return statusResult(SweepStatus::CompileFailed,
                            "no such policy");
    };
    SweepService service(config);

    Capture capture;
    service.submit(makeRequest("d1", "BFS", "nope"), capture.cb());
    EXPECT_EQ(capture.get().outcome, JobOutcome::Failed);
    // Retrying a compile failure reproduces it; one attempt only.
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(service.counters().retries, 0u);
}

// --- Circuit breaker --------------------------------------------------

TEST(ServeService, BreakerQuarantinesThenHalfOpenProbes)
{
    std::atomic<int> calls{0};
    ServeConfig config;
    config.workers = 1;
    config.retries = 0;
    config.breakerThreshold = 2;
    config.breakerCooldownMs = 50.0;
    config.runCell = [&](const SweepCase &, const SweepOptions &) {
        ++calls;
        return statusResult(SweepStatus::CompileFailed, "broken pair");
    };
    SweepService service(config);

    // Two consecutive failures of the (BFS, bad) pair trip the
    // breaker. Distinct arches keep the cache/coalescing keys apart.
    Capture first;
    service.submit(makeRequest("q1", "BFS", "bad"), first.cb());
    EXPECT_EQ(first.get().outcome, JobOutcome::Failed);
    JobRequest second = makeRequest("q2", "BFS", "bad");
    second.arch = "half-RF";
    Capture secondCapture;
    service.submit(second, secondCapture.cb());
    EXPECT_EQ(secondCapture.get().outcome, JobOutcome::Failed);
    EXPECT_EQ(calls.load(), 2);
    EXPECT_EQ(service.counters().breakerOpens, 1u);

    // Quarantined without touching a worker, with a retry-after hint.
    Capture third;
    service.submit(makeRequest("q3", "BFS", "bad"), third.cb());
    const JobResponse quarantined = third.get();
    EXPECT_EQ(quarantined.outcome, JobOutcome::Quarantined);
    EXPECT_NE(quarantined.error.find("BFS|bad"), std::string::npos);
    EXPECT_GT(quarantined.retryAfterMs, 0.0);
    EXPECT_EQ(calls.load(), 2);

    // An unrelated pair sails through the open breaker.
    Capture other;
    service.submit(makeRequest("q4", "SAD", "fine"), other.cb());
    EXPECT_EQ(other.get().outcome, JobOutcome::Failed);
    EXPECT_EQ(calls.load(), 3);

    // After the cooldown exactly one half-open probe runs; it fails,
    // so the pair is re-quarantined.
    std::this_thread::sleep_for(80ms);
    Capture probe;
    service.submit(makeRequest("q5", "BFS", "bad"), probe.cb());
    EXPECT_EQ(probe.get().outcome, JobOutcome::Failed);
    EXPECT_EQ(calls.load(), 4);
    Capture after;
    service.submit(makeRequest("q6", "BFS", "bad"), after.cb());
    EXPECT_EQ(after.get().outcome, JobOutcome::Quarantined);
    EXPECT_EQ(calls.load(), 4);
    EXPECT_EQ(service.counters().rejectedQuarantine, 2u);
}

TEST(ServeService, BreakerClosesAfterSuccessfulProbe)
{
    std::atomic<int> calls{0};
    ServeConfig config;
    config.workers = 1;
    config.retries = 0;
    config.breakerThreshold = 1;
    config.breakerCooldownMs = 30.0;
    config.runCell = [&](const SweepCase &, const SweepOptions &) {
        return ++calls == 1
                   ? statusResult(SweepStatus::SimFailed, "once")
                   : okResult();
    };
    SweepService service(config);

    Capture first;
    service.submit(makeRequest("p1", "BFS", "baseline"), first.cb());
    EXPECT_EQ(first.get().outcome, JobOutcome::Failed);
    EXPECT_EQ(service.counters().breakerOpens, 1u);

    std::this_thread::sleep_for(50ms);
    JobRequest probeRequest = makeRequest("p2", "BFS", "baseline");
    probeRequest.arch = "half-RF";
    Capture probe;
    service.submit(probeRequest, probe.cb());
    EXPECT_EQ(probe.get().outcome, JobOutcome::Ok);

    // The probe's success closed the breaker: submissions flow again.
    JobRequest next = makeRequest("p3", "BFS", "baseline");
    next.maxCycles = 1;  // distinct request, same (workload, policy)
    Capture nextCapture;
    service.submit(next, nextCapture.cb());
    EXPECT_EQ(nextCapture.get().outcome, JobOutcome::Ok);
    EXPECT_EQ(service.counters().rejectedQuarantine, 0u);
}

TEST(ServeService, CacheHitDoesNotConsumeHalfOpenProbe)
{
    std::atomic<int> halfRfCalls{0};
    ServeConfig config;
    config.workers = 1;
    config.retries = 0;
    config.breakerThreshold = 1;
    config.breakerCooldownMs = 20.0;
    config.runCell = [&](const SweepCase &cell, const SweepOptions &) {
        if (cell.arch == "half-RF")
            return ++halfRfCalls == 1
                       ? statusResult(SweepStatus::CompileFailed,
                                      "once")
                       : okResult(9);
        return okResult(5);
    };
    SweepService service(config);

    // Cache a (BFS, baseline) cell, then open the pair's breaker via
    // its half-RF sibling (distinct cache key, same pair).
    Capture seeded;
    service.submit(makeRequest("h1", "BFS", "baseline"), seeded.cb());
    EXPECT_EQ(seeded.get().outcome, JobOutcome::Ok);
    JobRequest broken = makeRequest("h2", "BFS", "baseline");
    broken.arch = "half-RF";
    Capture tripped;
    service.submit(broken, tripped.cb());
    EXPECT_EQ(tripped.get().outcome, JobOutcome::Failed);
    EXPECT_EQ(service.counters().breakerOpens, 1u);

    // After the cooldown a cached answer needs no simulation, so it
    // must not claim the probe slot (it used to, and with no job in
    // flight to clear `probing` the pair was quarantined forever).
    std::this_thread::sleep_for(40ms);
    Capture hit;
    service.submit(makeRequest("h3", "BFS", "baseline"), hit.cb());
    const JobResponse cached = hit.get();
    EXPECT_EQ(cached.outcome, JobOutcome::Ok);
    EXPECT_TRUE(cached.cached);

    // The real probe is still admitted and closes the breaker.
    JobRequest probe = makeRequest("h4", "BFS", "baseline");
    probe.arch = "half-RF";
    Capture probed;
    service.submit(probe, probed.cb());
    EXPECT_EQ(probed.get().outcome, JobOutcome::Ok);
    EXPECT_EQ(halfRfCalls.load(), 2);
    EXPECT_EQ(service.counters().rejectedQuarantine, 0u);
}

TEST(ServeService, PreemptedProbeReleasesHalfOpenSlot)
{
    std::atomic<int> calls{0};
    ServeConfig config;
    config.workers = 1;
    config.retries = 0;
    config.breakerThreshold = 1;
    config.breakerCooldownMs = 20.0;
    config.runCell = [&](const SweepCase &, const SweepOptions &) {
        switch (++calls) {
          case 1:
            return statusResult(SweepStatus::SimFailed, "flaky");
          case 2:
            // The probe stopping at its own deadline: terminal
            // preemption, which reaches no breaker verdict.
            return statusResult(SweepStatus::Preempted, "deadline");
          default:
            return okResult();
        }
    };
    SweepService service(config);

    Capture first;
    service.submit(makeRequest("x1", "BFS", "baseline"), first.cb());
    EXPECT_EQ(first.get().outcome, JobOutcome::Failed);
    EXPECT_EQ(service.counters().breakerOpens, 1u);

    std::this_thread::sleep_for(40ms);
    JobRequest probe = makeRequest("x2", "BFS", "baseline");
    probe.arch = "half-RF";
    Capture preempted;
    service.submit(probe, preempted.cb());
    EXPECT_EQ(preempted.get().outcome, JobOutcome::Preempted);

    // The preempted probe must release the half-open slot so the pair
    // can be probed again (it used to stay quarantined forever).
    Capture next;
    service.submit(makeRequest("x3", "BFS", "baseline"), next.cb());
    EXPECT_EQ(next.get().outcome, JobOutcome::Ok);
}

// --- Preemption and coalescing ---------------------------------------

TEST(ServeService, HigherPriorityPreemptsAndVictimResumes)
{
    std::atomic<bool> slowStarted{false};
    std::atomic<int> slowCalls{0};
    ServeConfig config;
    config.workers = 1;
    config.runCell = [&](const SweepCase &cell,
                         const SweepOptions &opts) {
        if (cell.workload == "slow") {
            if (++slowCalls == 1) {
                slowStarted.store(true);
                const auto deadline =
                    std::chrono::steady_clock::now() + 5s;
                while (!opts.gpu.control.cancel->load()) {
                    if (std::chrono::steady_clock::now() > deadline)
                        return statusResult(SweepStatus::SimFailed,
                                            "never cancelled");
                    std::this_thread::sleep_for(1ms);
                }
                return statusResult(SweepStatus::Preempted,
                                    "yielded");
            }
            return okResult(7);  // the resumed run
        }
        return okResult(3);
    };
    SweepService service(config);

    std::mutex orderMutex;
    std::vector<std::string> order;
    auto recording = [&](Capture &capture, const std::string &name) {
        return [&capture, &orderMutex, &order,
                name](const JobResponse &r) {
            {
                const std::lock_guard<std::mutex> lock(orderMutex);
                order.push_back(name);
            }
            capture.promise.set_value(r);
        };
    };

    Capture slow;
    service.submit(makeRequest("slow", "slow", "baseline", "c", 0),
                   recording(slow, "slow"));
    while (!slowStarted.load())
        std::this_thread::sleep_for(1ms);

    Capture fast;
    service.submit(makeRequest("fast", "fast", "baseline", "c", 5),
                   recording(fast, "fast"));

    const JobResponse fastResponse = fast.get();
    const JobResponse slowResponse = slow.get();
    EXPECT_EQ(fastResponse.outcome, JobOutcome::Ok);
    EXPECT_EQ(slowResponse.outcome, JobOutcome::Ok);
    // Yielding burns no attempt: the resumed run keeps the seed its
    // snapshot was taken under (bit-identity across the preemption).
    EXPECT_EQ(slowResponse.attempts, 1);
    EXPECT_EQ(slowCalls.load(), 2);

    const std::lock_guard<std::mutex> lock(orderMutex);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "fast");
    EXPECT_EQ(order[1], "slow");

    const ServeCounters counters = service.counters();
    EXPECT_EQ(counters.preempted, 1u);
    EXPECT_EQ(counters.completed, 2u);
}

TEST(ServeService, IdenticalInFlightSubmissionsCoalesce)
{
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::atomic<int> calls{0};
    ServeConfig config;
    config.workers = 1;
    config.runCell = [&](const SweepCase &, const SweepOptions &opts) {
        ++calls;
        started.store(true);
        while (!release.load()) {
            if (opts.gpu.control.cancel->load())
                return statusResult(SweepStatus::Preempted, "preempted");
            std::this_thread::sleep_for(1ms);
        }
        return okResult(42);
    };
    SweepService service(config);

    Capture first;
    service.submit(makeRequest("c1", "BFS", "baseline", "alice"),
                   first.cb());
    while (!started.load())
        std::this_thread::sleep_for(1ms);
    Capture second;
    service.submit(makeRequest("c2", "BFS", "baseline", "bob"),
                   second.cb());

    release.store(true);
    const JobResponse r1 = first.get();
    const JobResponse r2 = second.get();
    EXPECT_EQ(r1.outcome, JobOutcome::Ok);
    EXPECT_EQ(r2.outcome, JobOutcome::Ok);
    EXPECT_EQ(r1.id, "c1");
    EXPECT_EQ(r2.id, "c2");
    EXPECT_EQ(r1.stats.cycles, 42u);
    EXPECT_EQ(r2.stats.cycles, 42u);
    // One simulation answered both submissions.
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(service.counters().coalesced, 1u);
}

TEST(ServeService, CoalescedSubmissionsRespectClientCap)
{
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    ServeConfig config;
    config.workers = 1;
    config.perClientLimit = 1;
    config.runCell = [&](const SweepCase &, const SweepOptions &opts) {
        started.store(true);
        while (!release.load()) {
            if (opts.gpu.control.cancel->load())
                return statusResult(SweepStatus::Preempted,
                                    "preempted");
            std::this_thread::sleep_for(1ms);
        }
        return okResult();
    };
    SweepService service(config);

    Capture first;
    service.submit(makeRequest("l1", "BFS", "baseline", "alice"),
                   first.cb());
    while (!started.load())
        std::this_thread::sleep_for(1ms);

    // alice is at her cap: a duplicate key must not ride around the
    // admission bound on the coalescing path.
    Capture dup;
    service.submit(makeRequest("l2", "BFS", "baseline", "alice"),
                   dup.cb());
    const JobResponse capped = dup.get();
    EXPECT_EQ(capped.outcome, JobOutcome::Overloaded);
    EXPECT_NE(capped.error.find("in flight"), std::string::npos);

    // bob is under his cap; the same key coalesces for him.
    Capture other;
    service.submit(makeRequest("l3", "BFS", "baseline", "bob"),
                   other.cb());

    release.store(true);
    EXPECT_EQ(first.get().outcome, JobOutcome::Ok);
    EXPECT_EQ(other.get().outcome, JobOutcome::Ok);
    EXPECT_EQ(service.counters().rejectedClientCap, 1u);
    EXPECT_EQ(service.counters().coalesced, 1u);
}

// --- Drain ------------------------------------------------------------

TEST(ServeService, DrainAnswersEveryAcceptedJob)
{
    std::atomic<bool> started{false};
    ServeConfig config;
    config.workers = 1;
    config.runCell = [&](const SweepCase &, const SweepOptions &opts) {
        started.store(true);
        const auto deadline = std::chrono::steady_clock::now() + 5s;
        while (!opts.gpu.control.cancel->load())
            if (std::chrono::steady_clock::now() > deadline)
                return statusResult(SweepStatus::SimFailed,
                                    "never cancelled");
            else
                std::this_thread::sleep_for(1ms);
        return statusResult(SweepStatus::Preempted, "preempted");
    };
    SweepService service(config);

    Capture runningJob;
    service.submit(makeRequest("run", "BFS", "baseline", "a"),
                   runningJob.cb());
    while (!started.load())
        std::this_thread::sleep_for(1ms);
    Capture queuedJob;
    service.submit(makeRequest("wait", "SAD", "baseline", "b"),
                   queuedJob.cb());

    service.drain();

    // The running cell snapshots and answers "preempted" (resubmit to
    // resume); the queued cell never ran and says so.
    const JobResponse ran = runningJob.get();
    EXPECT_EQ(ran.outcome, JobOutcome::Preempted);
    EXPECT_NE(ran.error.find("resubmit to resume"), std::string::npos);
    const JobResponse queued = queuedJob.get();
    EXPECT_EQ(queued.outcome, JobOutcome::ShuttingDown);

    // Post-drain submissions are turned away, never silently dropped.
    EXPECT_TRUE(service.draining());
    Capture late;
    service.submit(makeRequest("late", "BFS", "regmutex", "a"),
                   late.cb());
    EXPECT_EQ(late.get().outcome, JobOutcome::ShuttingDown);
    EXPECT_GE(service.counters().rejectedDraining, 2u);
}

// --- Durable journal (real simulation) --------------------------------

TEST(ServeService, JournalServesCachedResultsAcrossRestart)
{
    const std::string journalPath =
        testing::TempDir() + "rm_serve_journal_test.jsonl";
    std::remove(journalPath.c_str());

    ServeConfig config;
    config.workers = 1;
    config.journalPath = journalPath;
    config.journalFsyncEvery = 1;

    SimStats firstStats;
    {
        SweepService service(config);
        Capture capture;
        service.submit(makeRequest("j1", "BFS", "baseline"),
                       capture.cb());
        const JobResponse response = capture.get();
        ASSERT_EQ(response.outcome, JobOutcome::Ok);
        EXPECT_FALSE(response.cached);
        ASSERT_TRUE(response.hasStats);
        firstStats = response.stats;
        EXPECT_GT(firstStats.cycles, 0u);

        // The same cell again is served from the fresh-results cache.
        Capture again;
        service.submit(makeRequest("j2", "BFS", "baseline"),
                       again.cb());
        const JobResponse hit = again.get();
        EXPECT_EQ(hit.outcome, JobOutcome::Ok);
        EXPECT_TRUE(hit.cached);
        EXPECT_EQ(hit.stats.cycles, firstStats.cycles);
        EXPECT_EQ(service.counters().cacheHits, 1u);
        service.drain();
    }

    // Simulate a crash mid-append: a torn trailing line must not
    // poison the replay.
    {
        std::ofstream torn(journalPath, std::ios::app);
        torn << "{\"key\": \"BFS|baseline|GTX";
    }

    // A restarted daemon replays the journal and serves the cell with
    // zero re-simulation, bit-identical to the first run.
    SweepService restarted(config);
    EXPECT_EQ(restarted.counters().journalReplayed, 1u);
    Capture capture;
    restarted.submit(makeRequest("j3", "BFS", "baseline"),
                     capture.cb());
    const JobResponse replayed = capture.get();
    EXPECT_EQ(replayed.outcome, JobOutcome::Ok);
    EXPECT_TRUE(replayed.cached);
    ASSERT_TRUE(replayed.hasStats);
    EXPECT_EQ(replayed.stats.cycles, firstStats.cycles);
    EXPECT_EQ(replayed.stats.instructions, firstStats.instructions);
    EXPECT_EQ(replayed.stats.avgResidentWarps,
              firstStats.avgResidentWarps);
    EXPECT_EQ(restarted.counters().completed, 0u);

    std::remove(journalPath.c_str());
}

// --- TCP shell --------------------------------------------------------

int
connectTo(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

void
sendLine(int fd, const std::string &text)
{
    const std::string line = text + "\n";
    ASSERT_EQ(::send(fd, line.data(), line.size(), 0),
              static_cast<ssize_t>(line.size()));
}

/** One newline-terminated reply, or whatever arrived within 10s. */
std::string
recvLine(int fd)
{
    std::string line;
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
        pollfd p{};
        p.fd = fd;
        p.events = POLLIN;
        if (::poll(&p, 1, 100) <= 0)
            continue;
        char c = 0;
        if (::recv(fd, &c, 1, 0) <= 0 || c == '\n')
            return line;
        line.push_back(c);
    }
    return line;
}

ServeConfig
stubNetConfig()
{
    ServeConfig config;
    config.workers = 1;
    config.runCell = [](const SweepCase &, const SweepOptions &) {
        return okResult();
    };
    return config;
}

TEST(ServeNet, HostileLineAnswersBadRequestAndDaemonSurvives)
{
    SweepService service(stubNetConfig());
    ServeServer server(service, ServeNetConfig{});
    std::thread accept([&] { server.run(); });

    const int fd = connectTo(server.port());
    ASSERT_GE(fd, 0);
    // Valid JSON, wrong shape, *non-string id*: the bad-request path
    // must read the id defensively instead of re-throwing (which used
    // to escape the reader thread and std::terminate the daemon).
    sendLine(fd,
             R"({"id":1,"workload":"w","policy":"p","client":"c"})");
    EXPECT_NE(recvLine(fd).find("bad-request"), std::string::npos);
    // The daemon is still up and answering on the same connection.
    sendLine(fd, R"({"cmd":"ping","id":"x"})");
    EXPECT_NE(recvLine(fd).find("pong"), std::string::npos);

    ::close(fd);
    server.shutdown();
    accept.join();
}

TEST(ServeNet, HungUpConnectionsAreReaped)
{
    SweepService service(stubNetConfig());
    ServeServer server(service, ServeNetConfig{});
    std::thread accept([&] { server.run(); });

    const int keep = connectTo(server.port());
    ASSERT_GE(keep, 0);
    sendLine(keep, R"({"cmd":"ping","id":"k"})");
    EXPECT_NE(recvLine(keep).find("pong"), std::string::npos);

    for (int i = 0; i < 3; ++i) {
        const int fd = connectTo(server.port());
        ASSERT_GE(fd, 0);
        sendLine(fd, R"({"cmd":"ping","id":"t"})");
        EXPECT_NE(recvLine(fd).find("pong"), std::string::npos);
        ::close(fd);
    }

    // The accept loop joins hung-up readers between polls, so a churn
    // of short-lived clients must not accumulate threads and fds.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (server.liveConnections() > 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(10ms);
    EXPECT_EQ(server.liveConnections(), 1u);

    ::close(keep);
    server.shutdown();
    accept.join();
}

// --- Metrics ----------------------------------------------------------

TEST(ServeService, MetricsJsonExportsServeCounters)
{
    ServeConfig config;
    config.workers = 1;
    config.runCell = [](const SweepCase &, const SweepOptions &) {
        return okResult();
    };
    SweepService service(config);

    Capture capture;
    service.submit(makeRequest("m1", "BFS", "baseline"), capture.cb());
    EXPECT_EQ(capture.get().outcome, JobOutcome::Ok);

    const JsonValue doc = parseJson(service.metricsJson());
    const JsonValue *counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_TRUE(counters->has("serve.completed"));
    EXPECT_EQ(counters->at("serve.completed").number, 1.0);
    EXPECT_EQ(counters->at("serve.admitted").number, 1.0);
    EXPECT_EQ(counters->at("serve.failed").number, 0.0);
    const JsonValue *gauges = doc.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_EQ(gauges->at("serve.queue_depth").number, 0.0);
    EXPECT_EQ(gauges->at("serve.running").number, 0.0);
}

} // namespace
} // namespace rm
