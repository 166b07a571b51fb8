/**
 * @file
 * Observability-layer tests: metric instrument semantics, sampler
 * cadence and column management, JSON writer/parser round-trips, the
 * CSV and Chrome-trace exporters, and a golden-file check pinning the
 * SimStats JSON schema (downstream scripts key on those names).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "core/experiment.hh"
#include "obs/export.hh"
#include "sim/diagnosis.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "sim/gpu.hh"
#include "sim/trace.hh"
#include "workloads/suite.hh"

#include "engine_golden_cases.hh"

namespace rm {
namespace {

// --- Instruments -----------------------------------------------------

TEST(Metrics, CounterAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, GaugeMovesBothWays)
{
    Gauge g;
    EXPECT_EQ(g.value(), 0);
    g.set(7);
    EXPECT_EQ(g.value(), 7);
    g.set(-3);
    EXPECT_EQ(g.value(), -3);
}

TEST(Metrics, HistogramBucketsArePowersOfTwo)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0);
    EXPECT_EQ(Histogram::bucketOf(1), 1);
    EXPECT_EQ(Histogram::bucketOf(2), 2);
    EXPECT_EQ(Histogram::bucketOf(3), 2);
    EXPECT_EQ(Histogram::bucketOf(4), 3);
    EXPECT_EQ(Histogram::bucketOf(1023), 10);
    EXPECT_EQ(Histogram::bucketOf(1024), 11);
    EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperBound(3), 7u);
}

TEST(Metrics, HistogramSummaryStats)
{
    Histogram h;
    EXPECT_EQ(h.min(), 0u);   // empty histogram reports 0, not UINT64_MAX
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.observe(0);
    h.observe(10);
    h.observe(2);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 12u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    EXPECT_EQ(h.bucketCount(0), 1u);              // the zero
    EXPECT_EQ(h.bucketCount(Histogram::bucketOf(10)), 1u);
}

TEST(Metrics, RegistryReferencesAreStable)
{
    MetricsRegistry registry;
    EXPECT_TRUE(registry.empty());
    Counter &a = registry.counter("a");
    a.add(1);
    // Creating many more instruments must not invalidate `a`.
    for (int i = 0; i < 100; ++i) {
        // Built via insert: "c" + to_string trips a GCC 12
        // -Wrestrict false positive at -O2 (GCC PR 105651).
        std::string name = std::to_string(i);
        name.insert(0, 1, 'c');
        registry.counter(name);
    }
    a.add(1);
    EXPECT_EQ(registry.counter("a").value(), 2u);
    EXPECT_FALSE(registry.empty());
    EXPECT_EQ(registry.counters().size(), 101u);
}

// --- Sampler ---------------------------------------------------------

/** What the SM does on every cycle it ticks. */
void
sampleIfDue(Sampler &sampler, std::uint64_t cycle)
{
    if (sampler.due(cycle))
        sampler.snapshot(cycle);
}

TEST(Sampler, SamplesOnExactMultiplesOfInterval)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("events");
    Sampler sampler(registry, 3);
    for (std::uint64_t cycle = 1; cycle <= 10; ++cycle) {
        c.add();
        sampleIfDue(sampler, cycle);
    }
    ASSERT_EQ(sampler.samples().size(), 3u);
    EXPECT_EQ(sampler.samples()[0].cycle, 3u);
    EXPECT_EQ(sampler.samples()[1].cycle, 6u);
    EXPECT_EQ(sampler.samples()[2].cycle, 9u);
    // Counter values captured at the sampled cycles.
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[0], 3.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[2].values[0], 9.0);
}

TEST(Sampler, ZeroIntervalDisablesTicks)
{
    MetricsRegistry registry;
    Sampler sampler(registry, 0);
    for (std::uint64_t cycle = 1; cycle <= 100; ++cycle)
        sampleIfDue(sampler, cycle);
    EXPECT_TRUE(sampler.samples().empty());
    // An explicit snapshot still works (end-of-run row).
    sampler.snapshot(100);
    EXPECT_EQ(sampler.samples().size(), 1u);
}

TEST(Sampler, LateMetricOpensBackfilledColumn)
{
    MetricsRegistry registry;
    registry.counter("early").add(1);
    Sampler sampler(registry, 1);
    sampleIfDue(sampler, 1);
    registry.counter("late").add(5);
    sampleIfDue(sampler, 2);
    ASSERT_EQ(sampler.columns().size(), 2u);
    EXPECT_EQ(sampler.columns()[0], "early");
    EXPECT_EQ(sampler.columns()[1], "late");
    // Row 0 predates "late": backfilled with zero.
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[1], 0.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[1].values[1], 5.0);
}

TEST(Sampler, HistogramsFlattenToThreeColumns)
{
    MetricsRegistry registry;
    registry.histogram("wait").observe(4);
    Sampler sampler(registry, 1);
    sampleIfDue(sampler, 1);
    const std::vector<std::string> expected{"wait.count", "wait.sum",
                                            "wait.max"};
    EXPECT_EQ(sampler.columns(), expected);
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[0], 1.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[1], 4.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[2], 4.0);
}

// --- JSON writer / parser --------------------------------------------

TEST(Json, WriterEscapesControlCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)),
              "\\u0001");
}

TEST(Json, RoundTripNestedDocument)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("bfs \"quoted\"");
    w.key("n").value(std::uint64_t{42});
    w.key("ratio").value(0.5);
    w.key("ok").value(true);
    w.key("missing").null();
    w.key("list").beginArray();
    w.value(1).value(2).value(3);
    w.endArray();
    w.key("nested").beginObject();
    w.key("deep").value(-7);
    w.endObject();
    w.endObject();

    const JsonValue doc = parseJson(w.take());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("name").string, "bfs \"quoted\"");
    EXPECT_DOUBLE_EQ(doc.at("n").number, 42.0);
    EXPECT_DOUBLE_EQ(doc.at("ratio").number, 0.5);
    EXPECT_TRUE(doc.at("ok").boolean);
    EXPECT_EQ(doc.at("missing").kind, JsonValue::Kind::Null);
    ASSERT_TRUE(doc.at("list").isArray());
    ASSERT_EQ(doc.at("list").items.size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("list").items[2].number, 3.0);
    EXPECT_DOUBLE_EQ(doc.at("nested").at("deep").number, -7.0);
    EXPECT_FALSE(doc.has("absent"));
    EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{"), FatalError);
    EXPECT_THROW(parseJson("[1,]"), FatalError);
    EXPECT_THROW(parseJson("{\"a\" 1}"), FatalError);
    EXPECT_THROW(parseJson("tru"), FatalError);
    EXPECT_THROW(parseJson("{} trailing"), FatalError);
}

TEST(Json, NonFiniteNumbersSerializeAsNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(std::numeric_limits<double>::infinity());
    w.endArray();
    const JsonValue doc = parseJson(w.take());
    ASSERT_EQ(doc.items.size(), 2u);
    EXPECT_EQ(doc.items[0].kind, JsonValue::Kind::Null);
    EXPECT_EQ(doc.items[1].kind, JsonValue::Kind::Null);
}

// --- Exporters -------------------------------------------------------

TEST(Export, SamplerCsvHasHeaderAndIntegralCells)
{
    MetricsRegistry registry;
    registry.counter("issue.slots").add(7);
    registry.gauge("warps").set(3);
    Sampler sampler(registry, 10);
    sampleIfDue(sampler, 10);
    registry.counter("issue.slots").add(5);
    sampleIfDue(sampler, 20);

    const std::string csv = samplerToCsv(sampler);
    std::istringstream lines(csv);
    std::string header, row1, row2;
    ASSERT_TRUE(std::getline(lines, header));
    ASSERT_TRUE(std::getline(lines, row1));
    ASSERT_TRUE(std::getline(lines, row2));
    EXPECT_EQ(header, "cycle,issue.slots,warps");
    EXPECT_EQ(row1, "10,7,3");
    EXPECT_EQ(row2, "20,12,3");
}

TEST(Export, RegistryJsonCarriesHistogramBuckets)
{
    MetricsRegistry registry;
    registry.counter("n").add(2);
    registry.gauge("level").set(-4);
    Histogram &h = registry.histogram("wait");
    h.observe(0);
    h.observe(5);

    const JsonValue doc = parseJson(registryToJson(registry));
    EXPECT_DOUBLE_EQ(doc.at("counters").at("n").number, 2.0);
    EXPECT_DOUBLE_EQ(doc.at("gauges").at("level").number, -4.0);
    const JsonValue &wait = doc.at("histograms").at("wait");
    EXPECT_DOUBLE_EQ(wait.at("count").number, 2.0);
    EXPECT_DOUBLE_EQ(wait.at("sum").number, 5.0);
    EXPECT_DOUBLE_EQ(wait.at("mean").number, 2.5);
    // Two non-empty buckets: the zero bucket and [4,8).
    ASSERT_EQ(wait.at("buckets").items.size(), 2u);
    EXPECT_DOUBLE_EQ(wait.at("buckets").items[0].at("le").number, 0.0);
    EXPECT_DOUBLE_EQ(wait.at("buckets").items[1].at("le").number, 7.0);
}

// --- Golden file: SimStats JSON schema -------------------------------

void
collectKeys(const JsonValue &value, const std::string &prefix,
            std::vector<std::string> &out)
{
    for (const auto &[name, member] : value.members) {
        const std::string path =
            prefix.empty() ? name : prefix + "." + name;
        if (member.isObject())
            collectKeys(member, path, out);
        else
            out.push_back(path);
    }
}

TEST(Export, SimStatsJsonKeysMatchGoldenFile)
{
    const Program p = buildWorkload("BFS");
    const SimStats stats = runPolicy("baseline", p, gtx480Config()).stats();
    const JsonValue doc = parseJson(statsToJson(stats));
    std::vector<std::string> keys;
    collectKeys(doc, "", keys);

    const std::string golden_path =
        std::string(RM_TEST_GOLDEN_DIR) + "/simstats_keys.txt";
    std::ifstream golden(golden_path);
    ASSERT_TRUE(golden) << "cannot open " << golden_path;
    std::vector<std::string> expected;
    for (std::string line; std::getline(golden, line);)
        if (!line.empty())
            expected.push_back(line);

    // The schema is an interface: scripts parse these names. Update the
    // golden file deliberately when the schema deliberately changes.
    EXPECT_EQ(keys, expected);
}

// --- statsFromJson forward/backward compatibility --------------------

/** A diagnosis with every field populated, for round-trip checks. */
HangDiagnosis
sampleDiagnosis()
{
    HangDiagnosis d;
    d.kernel = "K";
    d.policy = "regmutex";
    d.smId = 3;
    d.cycle = 4242;
    d.watchdogExpired = true;
    d.cause = DeadlockCause::Acquire;
    d.blockedAcquire = 2;
    d.blockedResource = 1;
    d.blockedBarrier = 4;
    d.otherWaiters = 1;
    d.eventQueueDepth = 7;
    d.memQueueDepth = 3;
    d.nextEventCycle = 4300;
    d.schedLastIssued = {5, -1};
    d.srpSections = 4;
    d.srpHolders = {0, 2};
    d.srpWaiters = {1, 3};
    WarpSnapshot warp;
    warp.slot = 1;
    warp.ctaId = 0;
    warp.warpInCta = 1;
    warp.pc = 17;
    warp.instruction = "acq";
    warp.state = WarpState::WaitAcquire;
    warp.waitAge = 900;
    warp.srpSection = 2;
    warp.holdsExt = true;
    warp.pendingMem = 1;
    warp.pendingWrites = 2;
    warp.instructionsExecuted = 55;
    d.warps.push_back(warp);
    return d;
}

TEST(Export, StatsFromJsonDefaultsMissingKeys)
{
    // A record written by an older producer: most keys absent.
    const SimStats s = statsFromJson(
        parseJson("{\"kernel\": \"K\", \"cycles\": 42}"));
    EXPECT_EQ(s.kernelName, "K");
    EXPECT_EQ(s.cycles, 42u);
    EXPECT_EQ(s.instructions, 0u);
    EXPECT_EQ(s.scoreboardStalls, 0u);
    EXPECT_EQ(s.faultEvents, 0u);
    EXPECT_FALSE(s.deadlocked);
    EXPECT_EQ(s.deadlockCause, DeadlockCause::None);
    EXPECT_EQ(s.hang, nullptr);
}

TEST(Export, StatsFromJsonIgnoresUnknownKeys)
{
    // A record written by a newer producer: extra keys at every level.
    SimStats original;
    original.kernelName = "K";
    original.allocatorName = "regmutex";
    original.cycles = 100;
    original.scoreboardStalls = 7;
    original.deadlocked = true;
    original.deadlockCause = DeadlockCause::Acquire;
    original.hang =
        std::make_shared<const HangDiagnosis>(sampleDiagnosis());

    JsonValue doc = parseJson(statsToJson(original));
    JsonValue extra;
    extra.kind = JsonValue::Kind::Number;
    extra.number = 9;
    doc.members.emplace_back("future_top_level_key", extra);
    for (auto &[key, member] : doc.members) {
        if (key == "stalls" || key == "hang")
            member.members.emplace_back("future_nested_key", extra);
    }

    const SimStats back = statsFromJson(doc);
    EXPECT_EQ(back, original);
    ASSERT_NE(back.hang, nullptr);
    EXPECT_EQ(back.hang->cycle, original.hang->cycle);
}

TEST(Export, HangDiagnosisRoundTripsThroughStatsJson)
{
    SimStats stats;
    stats.kernelName = "K";
    stats.deadlocked = true;
    stats.deadlockCause = DeadlockCause::Acquire;
    stats.hang = std::make_shared<const HangDiagnosis>(sampleDiagnosis());

    const SimStats back = statsFromJson(parseJson(statsToJson(stats)));
    ASSERT_NE(back.hang, nullptr);
    const HangDiagnosis &d = *back.hang;
    const HangDiagnosis &ref = *stats.hang;
    EXPECT_EQ(d.kernel, ref.kernel);
    EXPECT_EQ(d.policy, ref.policy);
    EXPECT_EQ(d.smId, ref.smId);
    EXPECT_EQ(d.cycle, ref.cycle);
    EXPECT_EQ(d.watchdogExpired, ref.watchdogExpired);
    EXPECT_EQ(d.cause, ref.cause);
    EXPECT_EQ(d.blockedAcquire, ref.blockedAcquire);
    EXPECT_EQ(d.blockedResource, ref.blockedResource);
    EXPECT_EQ(d.blockedBarrier, ref.blockedBarrier);
    EXPECT_EQ(d.otherWaiters, ref.otherWaiters);
    EXPECT_EQ(d.eventQueueDepth, ref.eventQueueDepth);
    EXPECT_EQ(d.memQueueDepth, ref.memQueueDepth);
    EXPECT_EQ(d.nextEventCycle, ref.nextEventCycle);
    EXPECT_EQ(d.schedLastIssued, ref.schedLastIssued);
    EXPECT_EQ(d.srpSections, ref.srpSections);
    EXPECT_EQ(d.srpHolders, ref.srpHolders);
    EXPECT_EQ(d.srpWaiters, ref.srpWaiters);
    ASSERT_EQ(d.warps.size(), ref.warps.size());
    const WarpSnapshot &w = d.warps[0];
    const WarpSnapshot &rw = ref.warps[0];
    EXPECT_EQ(w.slot, rw.slot);
    EXPECT_EQ(w.ctaId, rw.ctaId);
    EXPECT_EQ(w.warpInCta, rw.warpInCta);
    EXPECT_EQ(w.pc, rw.pc);
    EXPECT_EQ(w.instruction, rw.instruction);
    EXPECT_EQ(w.state, rw.state);
    EXPECT_EQ(w.waitAge, rw.waitAge);
    EXPECT_EQ(w.srpSection, rw.srpSection);
    EXPECT_EQ(w.holdsExt, rw.holdsExt);
    EXPECT_EQ(w.pendingMem, rw.pendingMem);
    EXPECT_EQ(w.pendingWrites, rw.pendingWrites);
    EXPECT_EQ(w.instructionsExecuted, rw.instructionsExecuted);
}

TEST(Export, StrippedHangObjectDefaultsItsFields)
{
    const SimStats s = statsFromJson(parseJson(
        "{\"kernel\": \"K\", \"deadlocked\": true,"
        " \"hang\": {\"kernel\": \"K\"}}"));
    ASSERT_NE(s.hang, nullptr);
    EXPECT_EQ(s.hang->kernel, "K");
    EXPECT_EQ(s.hang->cause, DeadlockCause::None);
    EXPECT_EQ(s.hang->srpSections, -1);
    EXPECT_FALSE(s.hang->watchdogExpired);
    EXPECT_TRUE(s.hang->warps.empty());
    EXPECT_TRUE(s.hang->srpHolders.empty());
}

// --- End to end: a real run through the full stack -------------------

class ObservedRun : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const Program p = buildWorkload("BFS");
        RunOptions options;
        options.gpu.obs.metrics = &registry;
        options.gpu.obs.sampler = &sampler;
        options.gpu.obs.trace = &trace;
        run = runPolicy("regmutex", p, gtx480Config(), options);
        executed = run.compile.program;
    }

    MetricsRegistry registry;
    Sampler sampler{registry, 500};
    IssueTrace trace{1 << 18};
    PolicyRun run;
    Program executed;
};

/**
 * Every engine counter in the registry equals its SimStats field (the
 * blocked-acquire counter: attempts that did not succeed), after
 * subtracting the stats @p before a resumed run started from.
 */
void
expectRegistryMirrorsStats(const MetricsRegistry &registry,
                           const SimStats &s, const SimStats &before = {})
{
    const std::pair<const char *, std::uint64_t> expected[] = {
        {"issue.slots_issued", s.issuedSlots - before.issuedSlots},
        {"issue.idle_slots",
         s.idleSchedulerSlots - before.idleSchedulerSlots},
        {"issue.instructions", s.instructions - before.instructions},
        {"stall.scoreboard",
         s.scoreboardStalls - before.scoreboardStalls},
        {"stall.mem_structural",
         s.memStructuralStalls - before.memStructuralStalls},
        {"stall.barrier", s.barrierStalls - before.barrierStalls},
        {"stall.acquire", s.acquireStalls - before.acquireStalls},
        {"stall.resource", s.resourceStalls - before.resourceStalls},
        {"stall.no_warp", s.noWarpStalls - before.noWarpStalls},
        {"srp.acquire_attempts",
         s.acquireAttempts - before.acquireAttempts},
        {"srp.acquire_successes",
         s.acquireSuccesses - before.acquireSuccesses},
        {"srp.acquire_blocked",
         (s.acquireAttempts - s.acquireSuccesses) -
             (before.acquireAttempts - before.acquireSuccesses)},
        {"srp.releases", s.releases - before.releases},
        {"sim.emergency_spills",
         s.emergencySpills - before.emergencySpills},
    };
    for (const auto &[name, value] : expected) {
        const auto it = registry.counters().find(name);
        ASSERT_NE(it, registry.counters().end()) << name;
        EXPECT_EQ(it->second.value(), value) << name;
    }
}

TEST_F(ObservedRun, MetricsMirrorSimStats)
{
    expectRegistryMirrorsStats(registry, run.stats());
    // Every successful acquire observed a wait (possibly zero cycles).
    EXPECT_EQ(registry.histogram("srp.acquire_wait_cycles").count(),
              run.stats().acquireSuccesses);
    // All SRP sections released by the end of the run.
    EXPECT_EQ(registry.gauge("srp.holders").value(), 0);
}

/** BFS under RegMutex with denied acquires, so the blocked-acquire,
 *  acquire-stall and wait-histogram paths all see traffic. */
RunOptions
deniedAcquireOptions()
{
    RunOptions options;
    options.gpu.fault.denyAcquire = {20000, 30000};
    return options;
}

TEST(ObservedLegs, MetricsMirrorSimStatsAcrossLegs)
{
    // Periodic snapshots cut the run into legs; the registry is
    // published at every leg end and must still mirror the final stats
    // exactly, like a one-leg run's does.
    const Program p = buildWorkload("BFS");
    RunOptions options = deniedAcquireOptions();
    MetricsRegistry one_leg;
    options.gpu.obs.metrics = &one_leg;
    const PolicyRun ref = runPolicy("regmutex", p, gtx480Config(), options);
    ASSERT_TRUE(ref.result.completed());
    EXPECT_GT(ref.stats().acquireAttempts, ref.stats().acquireSuccesses);
    expectRegistryMirrorsStats(one_leg, ref.stats());

    MetricsRegistry legs;
    Sampler sampler(legs, 250);
    int captures = 0;
    options.gpu.obs.metrics = &legs;
    options.gpu.obs.sampler = &sampler;
    options.gpu.snapshotEvery = 40000;
    options.gpu.snapshotSink = [&](const GpuSnapshot &) { ++captures; };
    const PolicyRun run = runPolicy("regmutex", p, gtx480Config(), options);
    ASSERT_TRUE(run.result.completed());
    EXPECT_GT(captures, 2);
    EXPECT_EQ(run.stats(), ref.stats());
    expectRegistryMirrorsStats(legs, run.stats());
}

/** Sampled value of @p column in row @p row (the column must exist). */
double
sampled(const Sampler &sampler, std::size_t row, const std::string &column)
{
    const std::vector<std::string> &columns = sampler.columns();
    const auto it = std::find(columns.begin(), columns.end(), column);
    EXPECT_NE(it, columns.end()) << column;
    if (it == columns.end())
        return -1.0;
    return sampler.samples()[row].values[static_cast<std::size_t>(
        it - columns.begin())];
}

TEST(ObservedLegs, ResumedRunCountsOnlyPostResumeEvents)
{
    // Cut once inside the denied-acquire window and once in a fault-free
    // run, where SRP sections are held across the cut.
    const Program p = buildWorkload("BFS");
    for (const bool denied : {true, false}) {
        SCOPED_TRACE(denied ? "denied acquires" : "no faults");
        const RunOptions plan = denied ? deniedAcquireOptions() : RunOptions{};
        RunOptions cut = plan;
        cut.gpu.control.maxCycles = 25000;
        const PolicyRun preempted =
            runPolicy("regmutex", p, gtx480Config(), cut);
        ASSERT_FALSE(preempted.result.completed());

        RunOptions resume = plan;
        MetricsRegistry registry;
        Sampler sampler(registry, 500);
        resume.gpu.obs.metrics = &registry;
        resume.gpu.obs.sampler = &sampler;
        resume.gpu.resume = preempted.result.snapshot;
        const PolicyRun resumed =
            runPolicy("regmutex", p, gtx480Config(), resume);
        ASSERT_TRUE(resumed.result.completed());
        expectRegistryMirrorsStats(registry, resumed.stats(),
                                   preempted.stats());
        EXPECT_EQ(registry.counters().at("sim.restores").value(), 1u);
        // Gauges are levels, not deltas: they read the resumed engine's
        // state, so every SRP section is free again at the end.
        EXPECT_EQ(registry.gauge("srp.holders").value(), 0);

        // Each gauge row sampled after the cut equals the uninterrupted
        // run's row at the same cycle.
        RunOptions whole = plan;
        MetricsRegistry whole_registry;
        Sampler whole_sampler(whole_registry, 500);
        whole.gpu.obs.metrics = &whole_registry;
        whole.gpu.obs.sampler = &whole_sampler;
        ASSERT_TRUE(runPolicy("regmutex", p, gtx480Config(), whole)
                        .result.completed());
        const std::uint64_t interval = sampler.interval();
        ASSERT_FALSE(sampler.samples().empty());
        ASSERT_EQ(sampler.samples().front().cycle, 25000u + interval);
        for (std::size_t row = 0; row < sampler.samples().size(); ++row) {
            const std::uint64_t cycle = sampler.samples()[row].cycle;
            const std::size_t whole_row = cycle / interval - 1;
            ASSERT_LT(whole_row, whole_sampler.samples().size());
            ASSERT_EQ(whole_sampler.samples()[whole_row].cycle, cycle);
            for (const char *gauge :
                 {"srp.holders", "warps.resident", "ctas.resident"}) {
                EXPECT_EQ(sampled(sampler, row, gauge),
                          sampled(whole_sampler, whole_row, gauge))
                    << gauge << " at cycle " << cycle;
            }
        }
    }
}

TEST_F(ObservedRun, SamplerCoversTheRun)
{
    ASSERT_FALSE(sampler.samples().empty());
    EXPECT_EQ(sampler.samples().front().cycle, 500u);
    EXPECT_LE(sampler.samples().back().cycle, run.stats().cycles);
    EXPECT_EQ(sampler.samples().size(), run.stats().cycles / 500);
}

TEST_F(ObservedRun, ChromeTraceIsValidAndBalanced)
{
    const JsonValue doc = parseJson(chromeTrace(trace, executed));
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_FALSE(events.items.empty());
    std::uint64_t slices = 0, instants = 0, metadata = 0;
    for (const JsonValue &event : events.items) {
        const std::string &ph = event.at("ph").string;
        if (ph == "X") {
            ++slices;
            EXPECT_GE(event.at("dur").number, 1.0);
        } else if (ph == "i") {
            ++instants;
        } else if (ph == "M") {
            ++metadata;
        } else {
            ADD_FAILURE() << "unexpected phase " << ph;
        }
    }
    EXPECT_GT(slices, 0u);
    EXPECT_GT(instants, 0u);
    EXPECT_GT(metadata, 0u);
    EXPECT_DOUBLE_EQ(doc.at("otherData").at("events_recorded").number,
                     static_cast<double>(trace.totalRecorded()));
}

TEST_F(ObservedRun, DisablingSinksChangesNoCycles)
{
    const Program p = buildWorkload("BFS");
    const PolicyRun plain = runPolicy("regmutex", p, gtx480Config());
    EXPECT_EQ(plain.stats().cycles, run.stats().cycles);
    EXPECT_EQ(plain.stats().instructions, run.stats().instructions);
}

// --- Sinks observe, never steer ----------------------------------------

/** Cycles the SM ticked (one sm.schedule span each) and the stats of a
 *  BFS/regmutex run with @p sinks attached. */
std::pair<std::uint64_t, SimStats>
tickedCycles(const ObsSinks &sinks)
{
    const Program p = buildWorkload("BFS");
    RunOptions options;
    options.gpu.obs = sinks;
    Profiler::enable();
    const PolicyRun run = runPolicy("regmutex", p, gtx480Config(), options);
    const ProfReport report = Profiler::report();
    Profiler::disable();
    return {report.phases[static_cast<std::size_t>(ProfPhase::SmSchedule)]
                .count,
            run.stats()};
}

TEST(SinksObserve, SamplerKeepsSkipAheadOn)
{
    // An attached sampler adds its sample cycles to the ticked ones and
    // nothing else: every other idle span is still skipped.
    const auto [bare_ticks, bare] = tickedCycles(ObsSinks{});
    MetricsRegistry registry;
    Sampler sampler(registry, 500);
    ObsSinks sinks;
    sinks.metrics = &registry;
    sinks.sampler = &sampler;
    const auto [observed_ticks, observed] = tickedCycles(sinks);
    EXPECT_EQ(observed, bare);
    ASSERT_GT(bare_ticks, 0u);
    EXPECT_LE(observed_ticks, bare_ticks + bare.cycles / 500 + 1);
    EXPECT_LT(observed_ticks, bare.cycles);
}

/** The stats and both exports of one sampled run of @p cell. */
struct ObservedCell
{
    SimStats stats;
    std::string csv;
    std::string metrics;
};

ObservedCell
observeCell(const test::GoldenCase &cell, bool skip_ahead,
            std::uint64_t snapshot_every)
{
    MetricsRegistry registry;
    Sampler sampler(registry, 500);
    RunOptions options;
    options.gpu.obs.metrics = &registry;
    options.gpu.obs.sampler = &sampler;
    options.gpu.snapshotEvery = snapshot_every;
    const PolicyRun run =
        test::runGoldenCase(cell, 1, skip_ahead, std::move(options));
    return {run.stats(), samplerToCsv(sampler), registryToJson(registry)};
}

TEST(SinksObserve, SampledRunMatchesPerCycleReference)
{
    // With skip-ahead on, a sampled run takes the same samples and ends
    // on the same registry as the per-cycle loop, in one leg or many.
    std::vector<test::GoldenCase> cells;
    for (const std::string &policy : test::goldenPolicies())
        cells.push_back({"BFS/" + policy, "BFS", policy});
    for (const test::GoldenCase &wide : test::wideGoldenCases()) {
        if (wide.key == "BFS/regmutex/k128/rep")
            cells.push_back(wide);
    }
    ASSERT_EQ(cells.size(), 6u);
    for (const test::GoldenCase &cell : cells) {
        for (const std::uint64_t snapshot_every : {0u, 20000u}) {
            const ObservedCell ticked =
                observeCell(cell, false, snapshot_every);
            const ObservedCell skipped =
                observeCell(cell, true, snapshot_every);
            const std::string where =
                cell.key + " snapshotEvery=" + std::to_string(snapshot_every);
            EXPECT_EQ(skipped.stats, ticked.stats) << where;
            EXPECT_EQ(skipped.csv, ticked.csv) << where;
            EXPECT_EQ(skipped.metrics, ticked.metrics) << where;
        }
    }
}

// --- Hostile input ---
//
// The serve daemon decodes these documents straight off a TCP socket,
// so the decoders must fail with a structured error on anything
// malformed or wrong-shaped — never default-construct silently, never
// crash.

TEST(HostileJson, TruncatedDocumentsThrow)
{
    for (const char *text :
         {"{\"cycles\":", "{\"a\":1,", "[1,2", "\"unterminated",
          "{\"stats\":{\"cycles\":12"})
        EXPECT_THROW(parseJson(text), FatalError) << text;
}

TEST(HostileJson, DeeplyNestedDocumentThrows)
{
    std::string deep;
    for (int i = 0; i < 500; ++i)
        deep += '[';
    for (int i = 0; i < 500; ++i)
        deep += ']';
    EXPECT_THROW(parseJson(deep), FatalError);
    // A merely nested document under the limit still parses.
    std::string fine = "1";
    for (int i = 0; i < 50; ++i)
        fine = "[" + fine + "]";
    EXPECT_NO_THROW(parseJson(fine));
    // The caller can tighten the limit for hostile surfaces.
    EXPECT_THROW(parseJson("[[[[1]]]]", 2), FatalError);
}

TEST(HostileJson, HugeNumbersDoNotCrash)
{
    EXPECT_THROW(parseJson(std::string("{\"x\":1e") +
                           std::string(4000, '9') + "}"),
                 FatalError);
}

TEST(HostileJson, WrongTypedStatsFieldsThrowSchemaErrors)
{
    // Present-but-wrong-typed members must not decode as defaults.
    EXPECT_THROW(statsFromJson(parseJson("{\"cycles\":\"fast\"}")),
                 JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("{\"cycles\":-5}")),
                 JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("{\"cycles\":1.5}")),
                 JsonSchemaError);
    EXPECT_THROW(
        statsFromJson(parseJson("{\"avg_resident_warps\":[1,2]}")),
        JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("{\"stalls\":7}")),
                 JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("{\"hang\":\"yes\"}")),
                 JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("{\"deadlocked\":\"true\"}")),
                 JsonSchemaError);
    // The whole document must be an object.
    EXPECT_THROW(statsFromJson(parseJson("[1,2,3]")), JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("42")), JsonSchemaError);
    // Missing members still default (forward compatibility).
    EXPECT_NO_THROW(statsFromJson(parseJson("{}")));
}

TEST(HostileJson, IntOverflowThrowsInsteadOfTruncating)
{
    // 2^33 fits a double and an int64 but not an int: jsonInt must
    // throw a key-naming schema error rather than wrap to garbage.
    try {
        jsonInt(parseJson("{\"priority\":8589934592}"), "priority");
        FAIL() << "expected JsonSchemaError";
    } catch (const JsonSchemaError &e) {
        EXPECT_NE(std::string(e.what()).find("priority"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(jsonInt(parseJson("{\"n\":-8589934592}"), "n"),
                 JsonSchemaError);
    // Boundary values still decode exactly.
    EXPECT_EQ(jsonInt(parseJson("{\"n\":2147483647}"), "n"),
              2147483647);
    EXPECT_EQ(jsonInt(parseJson("{\"n\":-2147483648}"), "n"),
              -2147483647 - 1);
}

TEST(HostileJson, WrongTypedDiagnosisFieldsThrowSchemaErrors)
{
    EXPECT_THROW(diagnosisFromJson(parseJson("\"hung\"")),
                 JsonSchemaError);
    EXPECT_THROW(diagnosisFromJson(parseJson("{\"warps\":{}}")),
                 JsonSchemaError);
    EXPECT_THROW(diagnosisFromJson(parseJson("{\"warps\":[42]}")),
                 JsonSchemaError);
    EXPECT_THROW(diagnosisFromJson(parseJson("{\"cycle\":\"now\"}")),
                 JsonSchemaError);
    EXPECT_NO_THROW(diagnosisFromJson(parseJson("{}")));
}

TEST(HostileJson, SchemaErrorsNameTheOffendingKey)
{
    try {
        statsFromJson(parseJson("{\"instructions\":false}"));
        FAIL() << "expected JsonSchemaError";
    } catch (const JsonSchemaError &e) {
        EXPECT_NE(std::string(e.what()).find("instructions"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace rm
