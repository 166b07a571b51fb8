#ifndef RM_SERVE_SERVICE_HH
#define RM_SERVE_SERVICE_HH

/**
 * @file
 * SweepService: the socket-free core of the rm-serve daemon. Clients
 * submit one sweep cell at a time (serve/protocol.hh) and get exactly
 * one asynchronous response each; the transport (serve/net.hh, or a
 * test calling submit() directly) only moves bytes.
 *
 * The service is engineered to never lose acknowledged work:
 *
 *  - Admission control: a bounded queue and a per-client in-flight cap
 *    turn overload into a structured "overloaded" response with a
 *    retry-after hint (an EWMA of recent cell service times scaled by
 *    the backlog) instead of unbounded memory growth.
 *  - Durable result cache: completed cells append to a JSONL journal
 *    (core/checkpoint.hh, fsync'd per record by default) keyed by
 *    sweepCaseKey. A restarted daemon replays the journal — tolerating
 *    a torn trailing line from a crash — and serves those cells from
 *    cache without re-simulating. Identical in-flight submissions are
 *    coalesced onto one simulation.
 *  - Retry with backoff: a failed cell is retried under a
 *    deterministic reseed (base + attempt * golden-ratio increment,
 *    the sweep runner's contract) after an exponential, jittered
 *    backoff. Deterministic failures (compile/lint) never retry, and a
 *    (workload, policy) pair that keeps failing trips a circuit
 *    breaker: further submissions are quarantined until a cooldown
 *    passes, then one probe is let through (half-open).
 *  - Priority preemption: when every worker is busy and a higher-
 *    priority job arrives, the lowest-priority running cell is
 *    cooperatively cancelled. Its engine snapshot (sim/snapshot.hh)
 *    is persisted and the job re-queued — when it runs again it
 *    resumes from the snapshot, so preemption costs zero simulated
 *    cycles (restore-then-run ≡ uninterrupted, the PR 5 invariant).
 *  - Graceful drain: drain() stops admission, cancels running cells
 *    (which snapshot and answer "preempted"; their snapshots survive
 *    for the next process), answers queued jobs "shutting-down", and
 *    fsyncs the journal before returning.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "core/sweep.hh"
#include "serve/protocol.hh"
#include "sim/gpu.hh"

namespace rm {

class JsonlCheckpoint;

/** Tuning knobs of one SweepService instance. */
struct ServeConfig
{
    /** Worker threads simulating cells (clamped to >= 1). */
    int workers = 2;
    /** Max queued (not yet running) jobs before "overloaded". */
    std::size_t queueLimit = 32;
    /** Max in-flight (queued + running) jobs per client name. */
    int perClientLimit = 8;
    /** Extra attempts after a sim failure (deterministic reseed). */
    int retries = 2;
    /** Exponential backoff between retry attempts, jittered +-25%. */
    double backoffBaseMs = 25.0;
    double backoffMaxMs = 1000.0;
    /** Consecutive deterministic job failures of one (workload,
     *  policy) pair before its breaker opens (0 disables). */
    int breakerThreshold = 3;
    /** How long an open breaker quarantines the pair before letting a
     *  half-open probe through. */
    double breakerCooldownMs = 5000.0;
    /** Durable result journal (JSONL); empty disables durability. */
    std::string journalPath;
    /** fsync cadence of the journal (1: every acknowledged record). */
    int journalFsyncEvery = 1;
    /** Snapshot directory for preempted cells; empty disables resume
     *  (preempted work is then genuinely lost). */
    std::string snapshotDir;
    /** Periodic snapshot cadence for running cells (simulated cycles);
     *  the final snapshot at the preemption point is always taken. */
    std::uint64_t snapshotEvery = 0;
    /** Base memory seed (attempt n simulates with seed + n * gamma). */
    std::uint64_t memSeed = 1;
    /** Run the static lint gate before simulating each cell. */
    bool lint = true;
    /** Seed of the backoff-jitter RNG (determinism in tests). */
    std::uint64_t jitterSeed = 0x5eedULL;
    /**
     * Test seam: replaces the per-cell simulation (runSweep) when set.
     * Receives the fully prepared cell and sweep options — including
     * gpu.control.cancel, which a faithful stub must poll to observe
     * preemption. Production leaves this empty.
     */
    std::function<SweepResult(const SweepCase &, const SweepOptions &)>
        runCell;
};

/** Point-in-time counter snapshot (exported as serve.* metrics). */
struct ServeCounters
{
    std::uint64_t admitted = 0;
    std::uint64_t rejectedOverload = 0;
    std::uint64_t rejectedClientCap = 0;
    std::uint64_t rejectedQuarantine = 0;
    std::uint64_t rejectedDraining = 0;
    std::uint64_t badRequests = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t preempted = 0;
    std::uint64_t retries = 0;
    std::uint64_t breakerOpens = 0;
    std::uint64_t journalReplayed = 0;
    std::size_t queueDepth = 0;
    std::size_t running = 0;
};

/** The daemon core. Construction starts the workers and replays the
 *  journal; destruction drains. Thread-safe. */
class SweepService
{
  public:
    using Callback = std::function<void(const JobResponse &)>;

    explicit SweepService(ServeConfig config);
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /**
     * Submit one job. @p cb is invoked exactly once with the response
     * — synchronously (rejections, cache hits) or later from a worker
     * thread. Callbacks must not re-enter the service.
     */
    void submit(const JobRequest &request, Callback cb);

    /** Graceful shutdown; idempotent. Returns when every accepted job
     *  has been answered and the journal is fsync'd. */
    void drain();

    bool draining() const { return stopFlag.load(); }

    ServeCounters counters() const;

    /** serve.* counters/gauges as a metrics-registry JSON document. */
    std::string metricsJson() const;

  private:
    struct Waiter
    {
        std::string id;
        std::string client;
        Callback cb;
    };

    struct Job
    {
        SweepCase cell;
        std::string key;
        int priority = 0;
        std::uint64_t maxCycles = 0;
        std::uint64_t seq = 0;  ///< FIFO tiebreak within a priority
        int attempt = 0;        ///< failed attempts so far
        std::chrono::steady_clock::time_point readyAt{};
        std::chrono::steady_clock::time_point startedAt{};
        std::atomic<bool> cancel{false};
        /** Cancelled to yield to a higher priority (re-queue on
         *  Preempted) rather than to drain (answer "preempted"). */
        bool preemptToYield = false;
        /** This job holds its pair's half-open breaker probe slot;
         *  every terminal outcome must release it. */
        bool breakerProbe = false;
        std::vector<Waiter> waiters;  ///< first entry is the submitter
    };

    struct Breaker
    {
        int consecutiveFailures = 0;
        bool open = false;
        bool probing = false;  ///< half-open probe in flight
        std::chrono::steady_clock::time_point openUntil{};
    };

    void workerLoop();
    std::shared_ptr<Job> popReadyJob(std::unique_lock<std::mutex> &lock);
    SweepResult runCell(Job &job);
    void finishJob(const std::shared_ptr<Job> &job,
                   const SweepResult &result,
                   std::unique_lock<std::mutex> &lock);
    void respondAll(Job &job, const JobResponse &base,
                    std::unique_lock<std::mutex> &lock);
    double retryAfterEstimateMs() const;  ///< callers hold the mutex
    void breakerRecord(const std::string &pair, bool success);

    ServeConfig config;
    std::unique_ptr<JsonlCheckpoint> journal;

    mutable std::mutex mutex;
    std::condition_variable cv;       ///< wakes workers
    std::condition_variable idleCv;   ///< wakes drain()
    std::atomic<bool> stopFlag{false};
    std::mutex drainMutex;
    bool drained = false;             ///< guarded by drainMutex

    std::vector<std::shared_ptr<Job>> queue;
    std::map<const Job *, std::shared_ptr<Job>> running;
    /** Coalescing index: key -> queued or running job. */
    std::map<std::string, std::shared_ptr<Job>> inFlight;
    /** Results completed by this process (the journal's replay index
     *  is immutable, so fresh completions live here). */
    std::map<std::string, SimStats> fresh;
    std::map<std::string, int> clientLoad;
    std::map<std::string, Breaker> breakers;
    std::uint64_t nextSeq = 0;
    double ewmaServiceMs = 0.0;
    Rng jitter;

    ServeCounters stats;
    std::vector<std::thread> workers;
};

} // namespace rm

#endif // RM_SERVE_SERVICE_HH
