#include "serve/service.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "core/checkpoint.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"

namespace rm {

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** The sweep runner's deterministic retry reseed increment. */
constexpr std::uint64_t kSeedGamma = 0x9e3779b9ULL;

} // namespace

SweepService::SweepService(ServeConfig cfg)
    : config(std::move(cfg)),
      journal(std::make_unique<JsonlCheckpoint>(config.journalPath,
                                                config.journalFsyncEvery)),
      jitter(config.jitterSeed)
{
    if (config.workers < 1)
        config.workers = 1;
    stats.journalReplayed = journal->replayed();
    workers.reserve(static_cast<std::size_t>(config.workers));
    for (int i = 0; i < config.workers; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

SweepService::~SweepService() { drain(); }

void
SweepService::submit(const JobRequest &request, Callback cb)
{
    JobResponse response;
    response.id = request.id;

    SweepCase cell;
    cell.workload = request.workload;
    cell.policy = request.policy;
    try {
        // The canonical label, so "half-rf" and "half-RF" share a key.
        const ArchEntry &arch = findArch(request.arch);
        cell.arch = arch.label;
        cell.config = arch.config;
    } catch (const UnknownArchError &e) {
        response.outcome = JobOutcome::BadRequest;
        response.error = std::string("job request: ") + e.what();
        {
            const std::lock_guard<std::mutex> lock(mutex);
            ++stats.badRequests;
        }
        cb(response);
        return;
    }
    const std::string key = sweepCaseKey(cell);
    response.key = key;
    const std::string pair = cell.workload + "|" + cell.policy;

    std::unique_lock<std::mutex> lock(mutex);

    if (stopFlag.load()) {
        ++stats.rejectedDraining;
        response.outcome = JobOutcome::ShuttingDown;
        response.error = "daemon draining; resubmit after restart";
        lock.unlock();
        cb(response);
        return;
    }

    // Circuit breaker: a (workload, policy) pair with a streak of
    // deterministic failures is quarantined until its cooldown passes;
    // then exactly one probe job is admitted (half-open) to test it.
    // The probe slot is only claimed further down, once the request is
    // genuinely enqueued — a cache hit or rejection below must not
    // leave `probing` set with no job in flight to ever clear it.
    Breaker *halfOpenProbe = nullptr;
    if (const auto it = breakers.find(pair);
        it != breakers.end() && it->second.open) {
        Breaker &b = it->second;
        const Clock::time_point now = Clock::now();
        if (now < b.openUntil || b.probing) {
            ++stats.rejectedQuarantine;
            response.outcome = JobOutcome::Quarantined;
            response.error = "breaker open for " + pair + " after " +
                             std::to_string(b.consecutiveFailures) +
                             " consecutive failures";
            response.retryAfterMs =
                b.probing ? config.breakerCooldownMs
                          : std::max(1.0, msBetween(now, b.openUntil));
            lock.unlock();
            cb(response);
            return;
        }
        halfOpenProbe = &b;
    }

    // Result cache: the replayed journal first (results from previous
    // processes), then the completions of this process. Either way the
    // response costs zero simulation.
    const SimStats *hit = journal->find(key);
    if (hit == nullptr) {
        if (const auto it = fresh.find(key); it != fresh.end())
            hit = &it->second;
    }
    if (hit != nullptr) {
        ++stats.cacheHits;
        response.outcome = JobOutcome::Ok;
        response.cached = true;
        response.stats = *hit;
        response.hasStats = true;
        lock.unlock();
        cb(response);
        return;
    }

    // Admission control, first leg: the per-client in-flight cap is
    // checked before coalescing too — an attached waiter holds a
    // response slot just like a dedicated job, so duplicate keys must
    // not let one client sail past its bound. Rejections carry a
    // retry-after hint derived from the EWMA of recent cell service
    // times and the backlog.
    const auto loadIt = clientLoad.find(request.client);
    const int load = loadIt == clientLoad.end() ? 0 : loadIt->second;
    if (load >= config.perClientLimit) {
        ++stats.rejectedClientCap;
        response.outcome = JobOutcome::Overloaded;
        response.error = "client '" + request.client + "' has " +
                         std::to_string(load) +
                         " jobs in flight (cap " +
                         std::to_string(config.perClientLimit) + ")";
        response.retryAfterMs = retryAfterEstimateMs();
        lock.unlock();
        cb(response);
        return;
    }

    // Coalescing: an identical cell already queued or running gets
    // this submission attached as an extra waiter — one simulation,
    // many answers.
    if (const auto it = inFlight.find(key); it != inFlight.end()) {
        ++stats.coalesced;
        ++stats.admitted;
        ++clientLoad[request.client];
        it->second->waiters.push_back(
            Waiter{request.id, request.client, std::move(cb)});
        return;
    }

    // Admission control, second leg: the global queue bound.
    if (queue.size() >= config.queueLimit) {
        ++stats.rejectedOverload;
        response.outcome = JobOutcome::Overloaded;
        response.error =
            "queue full (" + std::to_string(queue.size()) + " jobs)";
        response.retryAfterMs = retryAfterEstimateMs();
        lock.unlock();
        cb(response);
        return;
    }

    auto job = std::make_shared<Job>();
    if (halfOpenProbe != nullptr) {
        halfOpenProbe->probing = true;  // this request IS the probe
        job->breakerProbe = true;
    }
    job->cell = std::move(cell);
    job->key = key;
    job->priority = request.priority;
    job->maxCycles = request.maxCycles;
    job->seq = nextSeq++;
    job->readyAt = Clock::now();
    job->waiters.push_back(
        Waiter{request.id, request.client, std::move(cb)});
    ++clientLoad[request.client];
    ++stats.admitted;
    inFlight[key] = job;
    queue.push_back(job);

    // Priority preemption: every worker busy and this job outranks a
    // running cell -> cooperatively cancel the lowest-priority victim.
    // Its snapshot is persisted at the preemption point and the job
    // re-queued, so yielding costs zero simulated cycles.
    if (running.size() >= static_cast<std::size_t>(config.workers)) {
        Job *victim = nullptr;
        for (const auto &[ptr, run] : running) {
            (void)ptr;
            if (run->preemptToYield || run->cancel.load())
                continue;
            if (run->priority >= job->priority)
                continue;
            if (victim == nullptr || run->priority < victim->priority ||
                (run->priority == victim->priority &&
                 run->seq > victim->seq))
                victim = run.get();
        }
        if (victim != nullptr) {
            victim->preemptToYield = true;
            victim->cancel.store(true);
        }
    }
    cv.notify_one();
}

std::shared_ptr<SweepService::Job>
SweepService::popReadyJob(std::unique_lock<std::mutex> &lock)
{
    for (;;) {
        if (stopFlag.load() && queue.empty())
            return nullptr;
        const Clock::time_point now = Clock::now();
        auto best = queue.end();
        auto earliest = queue.end();
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (earliest == queue.end() ||
                (*it)->readyAt < (*earliest)->readyAt)
                earliest = it;
            if ((*it)->readyAt > now)
                continue;  // still backing off
            if (best == queue.end() ||
                (*it)->priority > (*best)->priority ||
                ((*it)->priority == (*best)->priority &&
                 (*it)->seq < (*best)->seq))
                best = it;
        }
        if (best != queue.end()) {
            std::shared_ptr<Job> job = *best;
            queue.erase(best);
            return job;
        }
        if (earliest == queue.end())
            cv.wait(lock);
        else
            cv.wait_until(lock, (*earliest)->readyAt);
    }
}

SweepResult
SweepService::runCell(Job &job)
{
    SweepOptions options;
    options.threads = 1;  // the cell runs inline on this worker thread
    options.retries = 0;  // the service owns retry/backoff/reseed
    options.lint = config.lint;
    options.snapshotDir = config.snapshotDir;
    // Deterministic reseed per retry attempt (the sweep runner's
    // gamma). A job resumed after preemption keeps its attempt count,
    // so the restored snapshot continues under the seed it was taken
    // with — the bit-identity invariant depends on that.
    options.gpu.memSeed =
        config.memSeed +
        static_cast<std::uint64_t>(job.attempt) * kSeedGamma;
    options.gpu.snapshotEvery = config.snapshotEvery;
    options.gpu.control.cancel = &job.cancel;
    options.gpu.control.maxCycles = job.maxCycles;
    if (config.runCell)
        return config.runCell(job.cell, options);
    std::vector<SweepResult> results = runSweep({job.cell}, options);
    return std::move(results.front());
}

void
SweepService::respondAll(Job &job, const JobResponse &base,
                         std::unique_lock<std::mutex> &lock)
{
    std::vector<Waiter> waiters = std::move(job.waiters);
    job.waiters.clear();
    for (const Waiter &w : waiters) {
        const auto it = clientLoad.find(w.client);
        if (it != clientLoad.end() && --it->second <= 0)
            clientLoad.erase(it);
    }
    lock.unlock();
    for (Waiter &w : waiters) {
        JobResponse response = base;
        response.id = w.id;
        w.cb(response);
    }
    lock.lock();
}

double
SweepService::retryAfterEstimateMs() const
{
    const double perCell = ewmaServiceMs > 0.0 ? ewmaServiceMs : 50.0;
    const double backlog =
        static_cast<double>(queue.size() + running.size() + 1);
    return std::max(1.0, perCell * backlog /
                             static_cast<double>(config.workers));
}

void
SweepService::breakerRecord(const std::string &pair, bool success)
{
    if (config.breakerThreshold <= 0)
        return;
    Breaker &b = breakers[pair];
    if (success) {
        b = Breaker{};  // close (a half-open probe succeeded, or the
                        // pair recovered on its own)
        return;
    }
    ++b.consecutiveFailures;
    b.probing = false;
    if (b.consecutiveFailures >= config.breakerThreshold) {
        b.open = true;
        b.openUntil =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    config.breakerCooldownMs));
        ++stats.breakerOpens;
    }
}

void
SweepService::finishJob(const std::shared_ptr<Job> &job,
                        const SweepResult &result,
                        std::unique_lock<std::mutex> &lock)
{
    const std::string pair =
        job->cell.workload + "|" + job->cell.policy;
    JobResponse base;
    base.key = job->key;
    base.attempts = job->attempt + 1;

    switch (result.status) {
      case SweepStatus::Ok: {
        fresh[job->key] = result.run.aggregate;
        inFlight.erase(job->key);
        breakerRecord(pair, true);
        const double ms = msBetween(job->startedAt, Clock::now());
        ewmaServiceMs =
            ewmaServiceMs == 0.0 ? ms : 0.8 * ewmaServiceMs + 0.2 * ms;
        ++stats.completed;
        base.outcome = JobOutcome::Ok;
        base.stats = result.run.aggregate;
        base.hasStats = true;
        respondAll(*job, base, lock);
        return;
      }
      case SweepStatus::CompileFailed:
      case SweepStatus::LintFailed:
        // Deterministic: retrying reproduces the same failure, so burn
        // no attempts and feed the breaker immediately.
        inFlight.erase(job->key);
        breakerRecord(pair, false);
        ++stats.failed;
        base.outcome = JobOutcome::Failed;
        base.error = result.error;
        respondAll(*job, base, lock);
        return;
      case SweepStatus::SimFailed:
      case SweepStatus::Deadlocked: {
        if (job->attempt < config.retries && !stopFlag.load()) {
            ++job->attempt;
            ++stats.retries;
            const int exponent = std::min(job->attempt - 1, 20);
            const double backoff = std::min(
                config.backoffMaxMs,
                config.backoffBaseMs *
                    static_cast<double>(std::uint64_t{1} << exponent));
            const double factor = 0.75 + 0.5 * jitter.uniformDouble();
            job->readyAt =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        backoff * factor));
            queue.push_back(job);
            cv.notify_one();
            return;  // no response yet: the retry owns the answer
        }
        inFlight.erase(job->key);
        breakerRecord(pair, false);
        ++stats.failed;
        base.outcome = JobOutcome::Failed;
        base.error = result.error;
        respondAll(*job, base, lock);
        return;
      }
      case SweepStatus::Preempted: {
        ++stats.preempted;
        if (job->preemptToYield && !stopFlag.load()) {
            // Yielded to a higher-priority job: the snapshot holds the
            // progress, so just get back in line. Not an attempt —
            // the resumed run must keep this attempt's seed.
            job->preemptToYield = false;
            job->cancel.store(false);
            job->readyAt = Clock::now();
            queue.push_back(job);
            cv.notify_one();
            return;
        }
        inFlight.erase(job->key);
        // Terminal preemption (deadline hit, or cancelled by drain)
        // reaches no breaker verdict; if this job was the half-open
        // probe, release the slot so the pair can be probed again.
        if (job->breakerProbe) {
            if (const auto it = breakers.find(pair);
                it != breakers.end())
                it->second.probing = false;
        }
        base.outcome = JobOutcome::Preempted;
        base.error = result.error.empty()
                         ? std::string("preempted")
                         : result.error;
        base.error += "; snapshot kept — resubmit to resume";
        respondAll(*job, base, lock);
        return;
      }
    }
}

void
SweepService::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        std::shared_ptr<Job> job = popReadyJob(lock);
        if (job == nullptr)
            return;
        running[job.get()] = job;
        job->startedAt = Clock::now();
        lock.unlock();

        SweepResult result;
        try {
            result = runCell(*job);
        } catch (const std::exception &e) {
            // runSweep isolates per-cell failures; anything escaping is
            // infrastructure (unwritable snapshot dir, ...). Fail the
            // job rather than the daemon.
            result.status = SweepStatus::SimFailed;
            result.error = e.what() ? e.what() : "unknown error";
        }
        if (result.status == SweepStatus::Ok && journal->enabled()) {
            try {
                journal->record(job->key, result.run.aggregate);
            } catch (const std::exception &e) {
                // Serve the result (it is correct) but say loudly that
                // durability is gone: a restart will re-simulate.
                warn("serve: journal append failed (", e.what(),
                     "); result for '", job->key, "' is not durable");
            }
        }

        lock.lock();
        running.erase(job.get());
        finishJob(job, result, lock);
        idleCv.notify_all();
    }
}

void
SweepService::drain()
{
    {
        const std::lock_guard<std::mutex> drainLock(drainMutex);
        if (drained)
            return;
        drained = true;
    }

    std::unique_lock<std::mutex> lock(mutex);
    stopFlag.store(true);
    // Queued jobs never ran: tell their waiters to resubmit after the
    // restart. Running jobs are cancelled; each snapshots at its
    // preemption point and answers "preempted" from its worker.
    std::vector<std::shared_ptr<Job>> pending = std::move(queue);
    queue.clear();
    for (const std::shared_ptr<Job> &job : pending) {
        ++stats.rejectedDraining;
        inFlight.erase(job->key);
        JobResponse base;
        base.key = job->key;
        base.outcome = JobOutcome::ShuttingDown;
        base.error = "daemon draining; resubmit after restart";
        respondAll(*job, base, lock);
    }
    for (const auto &[ptr, job] : running) {
        (void)ptr;
        job->cancel.store(true);
    }
    cv.notify_all();
    idleCv.wait(lock, [this] { return running.empty() && queue.empty(); });
    lock.unlock();

    cv.notify_all();
    for (std::thread &t : workers)
        if (t.joinable())
            t.join();
    journal->sync();
}

ServeCounters
SweepService::counters() const
{
    const std::lock_guard<std::mutex> lock(mutex);
    ServeCounters out = stats;
    out.queueDepth = queue.size();
    out.running = running.size();
    return out;
}

std::string
SweepService::metricsJson() const
{
    // MetricsRegistry is not thread-safe, so the service keeps native
    // counters under its mutex and materializes a registry on demand.
    const ServeCounters c = counters();
    MetricsRegistry registry;
    registry.counter("serve.admitted").add(c.admitted);
    registry.counter("serve.bad_requests").add(c.badRequests);
    registry.counter("serve.breaker_opens").add(c.breakerOpens);
    registry.counter("serve.cache_hits").add(c.cacheHits);
    registry.counter("serve.coalesced").add(c.coalesced);
    registry.counter("serve.completed").add(c.completed);
    registry.counter("serve.failed").add(c.failed);
    registry.counter("serve.journal_replayed").add(c.journalReplayed);
    registry.counter("serve.preempted").add(c.preempted);
    registry.counter("serve.rejected")
        .add(c.rejectedOverload + c.rejectedClientCap +
             c.rejectedQuarantine + c.rejectedDraining);
    registry.counter("serve.rejected.client_cap").add(c.rejectedClientCap);
    registry.counter("serve.rejected.draining").add(c.rejectedDraining);
    registry.counter("serve.rejected.overload").add(c.rejectedOverload);
    registry.counter("serve.rejected.quarantine")
        .add(c.rejectedQuarantine);
    registry.counter("serve.retries").add(c.retries);
    registry.gauge("serve.queue_depth")
        .set(static_cast<std::int64_t>(c.queueDepth));
    registry.gauge("serve.running")
        .set(static_cast<std::int64_t>(c.running));
    return registryToJson(registry);
}

} // namespace rm
