/**
 * @file
 * Engine-history equivalence: the refactored hot core (SoA WarpStore,
 * indexed EventWheel, skip-ahead cycle loop, one multi-word issue-mask
 * path) must reproduce earlier engines bit for bit.
 * tests/golden/engine_stats.tsv and engine_v2.snap were frozen from the
 * pre-refactor engine (heap-of-Events, AoS SimWarp, per-cycle loop);
 * engine_stats_wide.tsv was frozen from the last engine with separate
 * one-word and sweeping issue paths, over geometries (128 warp slots,
 * 96 registers) that took the sweeping path there. The grids live in
 * tests/engine_golden_cases.hh, shared with the generator
 * (tests/make_engine_goldens.cc). This suite replays them on the
 * current engine and demands identical statsToJson documents, with
 * skip-ahead on and off and across SM thread counts, and a bit-exact
 * resume from the v2-codec snapshot fixture.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "core/experiment.hh"
#include "engine_golden_cases.hh"
#include "obs/export.hh"
#include "sim/config.hh"
#include "sim/event_wheel.hh"
#include "sim/snapshot.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

std::string
goldenPath(const std::string &name)
{
    return std::string(RM_TEST_GOLDEN_DIR) + "/" + name;
}

/** key -> statsToJson document, loaded from a golden TSV file. */
std::map<std::string, std::string>
loadGoldenTsv(const std::string &name)
{
    std::map<std::string, std::string> t;
    std::ifstream in(goldenPath(name));
    EXPECT_TRUE(in.good()) << "missing " << name << " fixture";
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos)
            continue;
        t.emplace(line.substr(0, tab), line.substr(tab + 1));
    }
    return t;
}

const std::map<std::string, std::string> &
goldenStats()
{
    static const std::map<std::string, std::string> table =
        loadGoldenTsv("engine_stats.tsv");
    return table;
}

const std::map<std::string, std::string> &
wideGoldenStats()
{
    static const std::map<std::string, std::string> table =
        loadGoldenTsv("engine_stats_wide.tsv");
    return table;
}

using test::GoldenCase;
using test::goldenCases;
using test::runGoldenCase;
using test::wideGoldenCases;

void
expectMatchesGolden(const GoldenCase &c, int threads, bool skip_ahead = true)
{
    const auto it = goldenStats().find(c.key);
    ASSERT_NE(it, goldenStats().end()) << "no golden for " << c.key;
    const PolicyRun run = runGoldenCase(c, threads, skip_ahead);
    ASSERT_TRUE(run.result.completed()) << c.key;
    EXPECT_EQ(statsToJson(run.stats()), it->second)
        << c.key << " (threads=" << threads << ") diverged from the "
        << "pre-refactor golden";
}

/** A wide cell matches its frozen stats — or, when the file has no
 *  line for it, still does not fit the machine under its policy. */
void
expectMatchesWideGolden(const GoldenCase &c, int threads, bool skip_ahead)
{
    const auto it = wideGoldenStats().find(c.key);
    if (it == wideGoldenStats().end()) {
        EXPECT_THROW(runGoldenCase(c, threads, skip_ahead),
                     KernelDoesNotFitError)
            << c.key << " has no golden but now fits";
        return;
    }
    const PolicyRun run = runGoldenCase(c, threads, skip_ahead);
    ASSERT_TRUE(run.result.completed()) << c.key;
    EXPECT_EQ(statsToJson(run.stats()), it->second)
        << c.key << " (threads=" << threads << ", skip-ahead "
        << (skip_ahead ? "on" : "off") << ") diverged from the "
        << "multi-path golden";
}

TEST(EngineEquivalence, MatchesPreRefactorGoldens)
{
    for (const GoldenCase &c : goldenCases())
        expectMatchesGolden(c, 1);
}

TEST(EngineEquivalence, FullMachineMatchesAcrossThreadCounts)
{
    for (const GoldenCase &c : goldenCases()) {
        if (c.fullMachine)
            expectMatchesGolden(c, 8);
    }
}

TEST(EngineEquivalence, SkipAheadOffIsBitIdentical)
{
    for (const GoldenCase &c : goldenCases()) {
        if (!c.fullMachine)
            expectMatchesGolden(c, 1, /*skip_ahead=*/false);
    }
}

TEST(EngineEquivalence, WideGeometryMatchesGoldens)
{
    // Sanity: the fixture really covers both multi-word dimensions.
    EXPECT_GE(wideGoldenStats().size(), 15u);
    for (const GoldenCase &c : wideGoldenCases())
        expectMatchesWideGolden(c, 1, true);
}

TEST(EngineEquivalence, WideGeometrySkipAheadOffIsBitIdentical)
{
    for (const GoldenCase &c : wideGoldenCases()) {
        if (!c.fullMachine)
            expectMatchesWideGolden(c, 1, false);
    }
}

TEST(EngineEquivalence, WideFullMachineMatchesAcrossThreadCounts)
{
    for (const GoldenCase &c : wideGoldenCases()) {
        if (c.fullMachine)
            expectMatchesWideGolden(c, 8, true);
    }
}

TEST(EngineEquivalence, ResumesPreRefactorV2Snapshot)
{
    // The fixture is a mid-run capture (cycle 2500) written by the v2
    // codec; resuming it on the v3 engine must finish with exactly the
    // stats of the uninterrupted golden run.
    const GpuSnapshot snap = readSnapshotFile(goldenPath("engine_v2.snap"));
    RunOptions options;
    options.gpu.resume = std::make_shared<const GpuSnapshot>(snap);
    const PolicyRun resumed =
        runPolicy("regmutex", buildWorkload("BFS"), gtx480Config(), options);
    ASSERT_TRUE(resumed.result.completed());
    const auto it = goldenStats().find("BFS/regmutex/rep/clean");
    ASSERT_NE(it, goldenStats().end());
    EXPECT_EQ(statsToJson(resumed.stats()), it->second);
}

TEST(EngineEquivalence, ResavedV2SnapshotUsesV3Codec)
{
    // Cut the same run on the current engine: the capture must carry
    // the v3 version tag and still resume bit-exactly.
    RunOptions cut;
    cut.gpu.control.maxCycles = 2500;
    const PolicyRun preempted =
        runPolicy("regmutex", buildWorkload("BFS"), gtx480Config(), cut);
    ASSERT_FALSE(preempted.result.completed());
    ASSERT_NE(preempted.result.snapshot, nullptr);
    const std::string bytes = preempted.result.snapshot->serialize();
    SnapshotReader r(bytes);
    EXPECT_EQ(r.u32(), GpuSnapshot::kMagic);
    EXPECT_EQ(r.u32(), GpuSnapshot::kVersion);

    RunOptions options;
    options.gpu.resume = preempted.result.snapshot;
    const PolicyRun resumed =
        runPolicy("regmutex", buildWorkload("BFS"), gtx480Config(), options);
    ASSERT_TRUE(resumed.result.completed());
    EXPECT_EQ(statsToJson(resumed.stats()),
              goldenStats().at("BFS/regmutex/rep/clean"));
}

TEST(EventWheelTest, SameCycleEventsDrainInPushOrder)
{
    EventWheel wheel(64);
    wheel.reset(0);
    for (int i = 0; i < 5; ++i) {
        SimEvent e;
        e.cycle = 10;
        e.warpSlot = i;
        wheel.push(e);
    }
    std::vector<int> order;
    wheel.popDue(10, [&](const SimEvent &e) {
        order.push_back(e.warpSlot);
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(wheel.empty());
}

TEST(EventWheelTest, PastDuePushFiresOnNextPop)
{
    EventWheel wheel(64);
    wheel.reset(100);
    SimEvent e;
    e.cycle = 50;  // at or before the window base
    e.warpSlot = 7;
    wheel.push(e);
    EXPECT_EQ(wheel.size(), 1u);
    int fired = -1;
    wheel.popDue(101, [&](const SimEvent &ev) { fired = ev.warpSlot; });
    EXPECT_EQ(fired, 7);
}

TEST(EventWheelTest, OverflowMigratesIntoTheRing)
{
    EventWheel wheel(64);  // span 64: cycle 5000 overflows at now=0
    wheel.reset(0);
    SimEvent far;
    far.cycle = 5000;
    far.warpSlot = 1;
    wheel.push(far);
    SimEvent near;
    near.cycle = 10;
    near.warpSlot = 2;
    wheel.push(near);
    EXPECT_EQ(wheel.nextCycle(), 10u);

    std::vector<std::uint64_t> cycles;
    wheel.popDue(10, [&](const SimEvent &e) { cycles.push_back(e.cycle); });
    EXPECT_EQ(cycles, (std::vector<std::uint64_t>{10}));
    EXPECT_EQ(wheel.nextCycle(), 5000u);
    wheel.popDue(5000, [&](const SimEvent &e) { cycles.push_back(e.cycle); });
    EXPECT_EQ(cycles, (std::vector<std::uint64_t>{10, 5000}));
    EXPECT_TRUE(wheel.empty());
}

TEST(EventWheelTest, DrainSortedOrdersByCycleThenSeq)
{
    EventWheel wheel(64);
    wheel.reset(0);
    const std::uint64_t cycles[] = {30, 10, 30, 2000, 10};
    for (int i = 0; i < 5; ++i) {
        SimEvent e;
        e.cycle = cycles[i];
        e.warpSlot = i;
        wheel.push(e);
    }
    const std::vector<SimEvent> sorted = wheel.drainSorted();
    ASSERT_EQ(sorted.size(), 5u);
    // (10,slot1) (10,slot4) (30,slot0) (30,slot2) (2000,slot3)
    EXPECT_EQ(sorted[0].warpSlot, 1);
    EXPECT_EQ(sorted[1].warpSlot, 4);
    EXPECT_EQ(sorted[2].warpSlot, 0);
    EXPECT_EQ(sorted[3].warpSlot, 2);
    EXPECT_EQ(sorted[4].warpSlot, 3);
    EXPECT_EQ(wheel.size(), 5u);  // drainSorted is non-destructive
}

TEST(FlatFifoTest, FifoOrderAndCompaction)
{
    FlatFifo<int> fifo;
    for (int i = 0; i < 200; ++i)
        fifo.push(i);
    for (int i = 0; i < 150; ++i) {
        EXPECT_EQ(fifo.front(), i);
        fifo.pop();
    }
    EXPECT_EQ(fifo.size(), 50u);
    // Snapshot iteration sees exactly the live suffix, in order.
    int expect = 150;
    for (const int v : fifo)
        EXPECT_EQ(v, expect++);
    EXPECT_EQ(expect, 200);
}

} // namespace
} // namespace rm
