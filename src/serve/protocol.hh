#ifndef RM_SERVE_PROTOCOL_HH
#define RM_SERVE_PROTOCOL_HH

/**
 * @file
 * Wire protocol of the rm-serve daemon: newline-delimited JSON, one
 * request or response object per line. The codec is deliberately
 * paranoid — it decodes bytes straight off a socket — so malformed
 * JSON fails in parseJson (FatalError) and well-formed JSON with the
 * wrong shape fails in the typed accessors (JsonSchemaError naming the
 * offending key); neither ever default-constructs a job silently.
 *
 * Job request:
 *
 *     {"id":"t0-7","client":"t0","workload":"bprop","policy":"regmutex",
 *      "arch":"GTX480","priority":1,"max_cycles":0}
 *
 * Job response (stats present only on "ok"):
 *
 *     {"id":"t0-7","status":"ok","key":"bprop|regmutex|...","cached":true,
 *      "attempts":1,"stats":{...statsToJson...}}
 *
 * Rejections carry a backpressure hint:
 *
 *     {"id":"t0-8","status":"overloaded","error":"queue full",
 *      "retry_after_ms":120.0}
 *
 * Control messages ({"cmd":"ping"|"metrics"|"drain",...}) are handled
 * by the net layer (serve/net.hh), not this codec.
 */

#include <cstdint>
#include <string>

#include "sim/stats.hh"

namespace rm {

struct JsonValue;

/** One sweep-cell job submitted to the daemon. */
struct JobRequest
{
    /** Client-chosen correlation id, echoed verbatim in the response
     *  (responses complete out of order). */
    std::string id;
    /** Tenant name for the per-client in-flight cap; empty is a valid
     *  (shared) anonymous tenant. */
    std::string client;
    std::string workload;
    std::string policy;
    /** Architecture label from archTable() (sim/config.hh), any ASCII
     *  case: "GTX480" (default), "half-RF", "Kepler", ... */
    std::string arch = "GTX480";
    /** Higher priority runs first and may preempt a running lower-
     *  priority cell (its snapshot resumes later — no lost cycles). */
    int priority = 0;
    /** Per-job simulated-cycle budget (0: unlimited). A job that hits
     *  it answers "preempted" with its snapshot kept for resumption. */
    std::uint64_t maxCycles = 0;
};

/** Terminal disposition of one job, in the "status" response field. */
enum class JobOutcome {
    Ok,           ///< simulated (or cache hit) — stats attached
    Failed,       ///< compile/lint/sim failure after all retries
    Preempted,    ///< stopped by a budget or drain; snapshot kept
    Overloaded,   ///< admission refused: queue full / client cap
    Quarantined,  ///< circuit breaker open for (workload, policy)
    ShuttingDown, ///< daemon draining; resubmit after restart
    BadRequest,   ///< request did not decode / unknown arch
};

/** Stable lower-case label ("ok", "shutting-down", ...). */
const char *jobOutcomeName(JobOutcome outcome);

/** One response line; ids pair it with its request. */
struct JobResponse
{
    std::string id;
    JobOutcome outcome = JobOutcome::Ok;
    /** Failure detail / rejection reason (empty on ok). */
    std::string error;
    /** sweepCaseKey of the resolved cell (also the cache identity). */
    std::string key;
    /** True when served from the journal/result cache — no simulation
     *  was run for this response. */
    bool cached = false;
    /** Simulation attempts spent (cache hits report 0). */
    int attempts = 0;
    /** Backpressure hint on Overloaded/Quarantined: come back after
     *  roughly this many milliseconds. */
    double retryAfterMs = 0.0;
    bool hasStats = false;
    SimStats stats;
};

std::string encodeJobRequest(const JobRequest &request);
/** @throws JsonSchemaError on a wrong-shaped document. */
JobRequest decodeJobRequest(const JsonValue &doc);

std::string encodeJobResponse(const JobResponse &response);
/** @throws JsonSchemaError on a wrong-shaped document. */
JobResponse decodeJobResponse(const JsonValue &doc);

} // namespace rm

#endif // RM_SERVE_PROTOCOL_HH
