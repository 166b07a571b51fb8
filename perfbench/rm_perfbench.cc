/**
 * @file
 * rm-perfbench: runs one benchmark workload by calling the
 * repository's public functions and writes the raw samples (operation
 * times, simulated counts, spans) as JSON. perfbench/run.py plans each
 * run, checks the outputs and turns the samples into metrics; see
 * perfbench/README.md.
 *
 *   rm-perfbench --plan PLAN.json --out RAW.json --seconds S
 *                --trace 0|1 --work-dir DIR [--serve-bin PATH]
 *   rm-perfbench --capture-expected OUT.json
 *
 * The plan names the workload, its cells and their seeded order. With
 * --trace 1 the run first measures untraced for half the seconds, then
 * records spans for the other half, so the two can be compared.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "analysis/lint.hh"
#include "common/thread_pool.hh"
#include "core/checkpoint.hh"
#include "core/policy.hh"
#include "core/sweep.hh"
#include "daemon.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "serve/protocol.hh"
#include "sim/gpu.hh"
#include "sim/snapshot.hh"
#include "sim/trace.hh"
#include "workloads/suite.hh"

namespace {

using namespace rm;
using perfbench::Daemon;
using perfbench::LineConnection;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

GpuConfig
archConfig(const std::string &arch)
{
    if (arch == "GTX480")
        return gtx480Config();
    if (arch == "half-RF")
        return halfRegisterFile(gtx480Config());
    throw std::runtime_error("unknown arch '" + arch + "'");
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    if (!out.good())
        throw std::runtime_error("cannot write " + path);
}

/**
 * Spans recorded around the benchmark's calls into each layer. They
 * stay in memory and are written out with the samples. Until enable()
 * open() returns 0 and records nothing; enable() is called between
 * phases, while no other thread records.
 */
class SpanLog
{
  public:
    void enable() { enabled_ = true; }

    std::uint64_t open(const char *name, std::uint64_t op,
                       std::uint64_t parent, int cell = -1)
    {
        if (!enabled_)
            return 0;
        const double t = now();
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, op, parent, cell, t, t});
        return spans_.size();
    }

    /** Record a span timed by the caller. */
    void add(const char *name, std::uint64_t op, std::uint64_t parent,
             Clock::time_point start, Clock::time_point end)
    {
        if (!enabled_)
            return;
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, op, parent, -1, at(start), at(end)});
    }

    void close(std::uint64_t id)
    {
        if (id == 0)
            return;
        const double t = now();
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_[id - 1].end = t;
    }

    /** [[id, parent, op, cell, name, start_us, end_us], ...] */
    void write(JsonWriter &w) const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        w.beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Entry &s = spans_[i];
            w.beginArray();
            w.value(static_cast<std::uint64_t>(i + 1));
            w.value(s.parent).value(s.op).value(s.cell).value(s.name);
            w.value(s.start).value(s.end);
            w.endArray();
        }
        w.endArray();
    }

  private:
    struct Entry
    {
        const char *name;
        std::uint64_t op;
        std::uint64_t parent;
        int cell;  ///< cell the span works on (-1: inherited from parent)
        double start;
        double end;
    };

    double at(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_).count();
    }

    double now() const { return at(Clock::now()); }

    bool enabled_ = false;
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Entry> spans_;
};

/** RAII span; id() is the parent for nested spans. */
class Span
{
  public:
    Span(SpanLog &log, const char *name, std::uint64_t op,
         std::uint64_t parent = 0, int cell = -1)
        : log_(log), id_(log.open(name, op, parent, cell))
    {
    }
    ~Span() { log_.close(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint64_t id_;
};

struct Cell
{
    std::string workload;
    std::string policy;
    std::string arch;
    GpuConfig config;
};

/** One timed operation and the simulated counts it produced. */
struct Op
{
    Op(std::string kind, char phase) : kind(std::move(kind)), phase(phase) {}

    std::string kind;
    char phase = 'u';  ///< 'w' set-up, 'u' untraced, 't' traced
    double ms = 0.0;
    std::uint64_t id = 0;
    bool ok = true;
    std::string error;
    /** (cell, cycles, instructions, ctasCompleted) per cell run. */
    std::vector<std::array<std::uint64_t, 4>> cells;

    void fail(const std::string &why)
    {
        if (ok)
            error = why;
        ok = false;
    }
};

class Bench
{
  public:
    Bench(const JsonValue &plan, double seconds, bool traced,
          std::string work_dir, std::string serve_bin)
        : plan(plan), seconds(seconds), traced(traced),
          workDir(std::move(work_dir)), serveBin(std::move(serve_bin))
    {
        for (const JsonValue &c : plan.at("cells").items) {
            Cell cell{c.items.at(0).string, c.items.at(1).string,
                      c.items.at(2).string, archConfig(c.items.at(2).string)};
            cells.push_back(std::move(cell));
        }
        setupReps = jsonInt(plan, "setup_reps", 3);
        width = std::max(1u, std::thread::hardware_concurrency());
    }

    void run()
    {
        const std::string workload = jsonString(plan, "workload");
        if (workload == "suite-sweep")
            suiteSweep();
        else if (workload == "inspect-observed")
            inspectObserved();
        else if (workload == "serve-closed")
            serveClosed();
        else
            throw std::runtime_error("unknown workload '" + workload + "'");
    }

    void write(const std::string &path) const;

  private:
    std::vector<int> indices(const JsonValue &array) const
    {
        std::vector<int> out;
        for (const JsonValue &v : array.items)
            out.push_back(static_cast<int>(v.number));
        return out;
    }

    std::uint64_t newOp() { return nextOp.fetch_add(1); }

    /**
     * Output check shared by every source of a cell's stats: the first
     * result of a cell becomes its reference, and every later result
     * (another pass, the traced run, an observed or profiled run, a
     * served cold answer or cache hit) must serialize identically.
     */
    void record(Op &op, int cell, const SimStats &stats)
    {
        op.cells.push_back({static_cast<std::uint64_t>(cell), stats.cycles,
                            stats.instructions, stats.ctasCompleted});
        const std::string json = statsToJson(stats);
        const std::lock_guard<std::mutex> lock(refMutex);
        const auto [it, fresh] = reference.try_emplace(cell, stats, json);
        if (!fresh && it->second.second != json)
            op.fail("stats of cell " + std::to_string(cell) +
                    " differ from its first run");
    }

    void addOp(Op op)
    {
        const std::lock_guard<std::mutex> lock(opsMutex);
        ops.push_back(std::move(op));
    }

    /** Run @p one(i) for i = 0, 1, ... until @p budget seconds pass. */
    template <typename F>
    void measure(double budget, F &&one)
    {
        const auto start = Clock::now();
        for (int i = 0; msSince(start) < budget * 1000.0; ++i)
            one(i);
    }

    /**
     * Free heap pages go back to the kernel and the high-water mark
     * restarts, so a peak measured from here on does not carry earlier
     * operations' fragmentation.
     */
    static void resetPeakRss()
    {
        ::malloc_trim(0);
        std::ofstream("/proc/self/clear_refs") << "5";
    }

    static double ownPeakRssKb()
    {
        return static_cast<double>(perfbench::peakRssKb(::getpid()));
    }

    /** Untraced for the whole budget, or half untraced, half traced. */
    template <typename F>
    void phases(F &&one)
    {
        if (!traced) {
            measure(seconds, [&](int i) { one('u', i); });
            return;
        }
        measure(seconds / 2, [&](int i) { one('u', i); });
        spans.enable();
        measure(seconds / 2, [&](int i) { one('t', i); });
    }

    void suiteSweep();
    void sweepPass(const std::vector<int> &order, char phase,
                   const char *kind);
    void tracedSweepPass(const std::vector<int> &order);

    void inspectObserved();
    void inspectCell(int cell, char phase);

    void serveClosed();
    void closedLoop(const Daemon &daemon, const JsonValue &stream,
                    char phase);
    void serveCounters(const Daemon &daemon);
    void replayCells();

    /** Build @p workload's program, as each rm-inspect run and each
     *  served cell does. */
    Program build(const std::string &workload, std::uint64_t op,
                  std::uint64_t parent)
    {
        Span s(spans, "workloads.build", op, parent);
        return buildWorkload(workload);
    }

    const JsonValue &plan;
    double seconds;
    bool traced;
    SpanLog spans;
    std::string workDir;
    std::string serveBin;
    std::vector<Cell> cells;
    int setupReps = 3;
    unsigned width = 1;

    std::atomic<std::uint64_t> nextOp{1};
    std::mutex opsMutex;
    std::vector<Op> ops;
    std::vector<double> setupSeconds;
    /** Largest peak resident memory of an inspect operation this pass. */
    double passPeakKb = 0;
    /** Wall time of the serve rounds' closed loops, per phase. */
    std::map<char, double> loopSeconds;
    std::map<std::string, double> counters;
    std::map<std::string, std::vector<double>> sizes;

    std::mutex refMutex;
    std::map<int, std::pair<SimStats, std::string>> reference;
};

// ---------------------------------------------------------------- sweep

void
Bench::sweepPass(const std::vector<int> &order, char phase, const char *kind)
{
    std::vector<SweepCase> grid;
    for (const int i : order) {
        SweepCase c;
        c.workload = cells[i].workload;
        c.policy = cells[i].policy;
        c.arch = cells[i].arch;
        c.config = cells[i].config;
        grid.push_back(std::move(c));
    }
    SweepOptions options;
    options.threads = static_cast<int>(width);
    Op op(kind, phase);
    op.id = newOp();
    const auto t0 = Clock::now();
    const std::vector<SweepResult> results = runSweep(grid, options);
    op.ms = msSince(t0);
    for (std::size_t j = 0; j < results.size(); ++j) {
        if (!results[j].ok())
            op.fail(results[j].error);
        record(op, order[j], results[j].stats());
    }
    addOp(std::move(op));
}

/**
 * The calls runSweep makes for each cell, made here one by one so each
 * layer gets its own span: workloads built serially, then compile,
 * lint, simulate and the stats export of every cell on the same pool.
 */
void
Bench::tracedSweepPass(const std::vector<int> &order)
{
    Op op("pass", 't');
    op.id = newOp();
    const auto t0 = Clock::now();
    const std::uint64_t pass = spans.open("sweep.pass", op.id, 0);
    std::map<std::string, Program> built;
    for (const int i : order) {
        const std::string &name = cells[i].workload;
        if (built.count(name))
            continue;
        Span s(spans, "workloads.build", op.id, pass);
        built.emplace(name, buildWorkload(name));
    }
    std::vector<SimStats> stats(order.size());
    std::vector<std::string> errors(order.size());
    parallelFor(
        static_cast<int>(order.size()),
        [&](int j) {
            const Cell &c = cells[order[static_cast<std::size_t>(j)]];
            const PolicySpec &policy = PolicyRegistry::instance().at(c.policy);
            Span cell(spans, "sweep.cell", op.id, pass,
                      order[static_cast<std::size_t>(j)]);
            PolicyCompile pc;
            {
                Span s(spans, "compiler.compile", op.id, cell.id());
                pc = policy.compile(built.at(c.workload), c.config, {});
            }
            {
                Span s(spans, "analysis.lint", op.id, cell.id());
                LintOptions lint;
                lint.config = &c.config;
                lint.disabledChecks = policy.lintSuppressions;
                if (!runLints(pc.program, lint).clean())
                    errors[j] = "lint failed";
            }
            GpuResult result;
            {
                Span s(spans, "sim.simulate", op.id, cell.id());
                result = simulateGpu(c.config, pc.program, policy.allocator,
                                     GpuOptions{});
            }
            {
                Span s(spans, "obs.stats_json", op.id, cell.id());
                statsToJson(result.aggregate);
            }
            stats[j] = result.aggregate;
        },
        static_cast<int>(width));
    spans.close(pass);
    op.ms = msSince(t0);
    for (std::size_t j = 0; j < order.size(); ++j) {
        if (!errors[j].empty())
            op.fail(errors[j]);
        record(op, order[j], stats[j]);
    }
    addOp(std::move(op));
}

void
Bench::suiteSweep()
{
    const std::vector<int> warmup = indices(plan.at("warmup"));
    const JsonValue &passes = plan.at("passes");
    // Set-up: everything before the first timed pass, including one
    // untimed warm-up sweep over every cell.
    for (int rep = 0; rep < setupReps; ++rep) {
        const auto t0 = Clock::now();
        sweepPass(warmup, 'w', "warmup");
        setupSeconds.push_back(msSince(t0) / 1000.0);
    }
    phases([&](char phase, int i) {
        const std::vector<int> order =
            indices(passes.items[static_cast<std::size_t>(i) %
                                 passes.items.size()]);
        resetPeakRss();
        if (phase == 'u') {
            sweepPass(order, phase, "pass");
            sizes["peak_rss_kb"].push_back(ownPeakRssKb());
        } else {
            tracedSweepPass(order);
        }
    });
}

// -------------------------------------------------------------- inspect

void
Bench::inspectCell(int index, char phase)
{
    const Cell &c = cells[static_cast<std::size_t>(index)];
    const PolicySpec &policy = PolicyRegistry::instance().at(c.policy);
    const std::uint64_t cadence = static_cast<std::uint64_t>(
        plan.at("snapshot_every").items.at(static_cast<std::size_t>(index))
            .number);
    const std::string stem = workDir + "/inspect";

    // 1. Bare run.
    {
        Op op("bare", phase);
        op.id = newOp();
        resetPeakRss();
        const auto t0 = Clock::now();
        Span root(spans, "inspect.bare", op.id, 0, index);
        const Program prog = build(c.workload, op.id, root.id());
        PolicyCompile pc;
        {
            Span s(spans, "compiler.compile", op.id, root.id());
            pc = policy.compile(prog, c.config, {});
        }
        GpuResult result;
        {
            Span s(spans, "sim.simulate", op.id, root.id());
            result = simulateGpu(c.config, pc.program, policy.allocator,
                                 GpuOptions{});
        }
        op.ms = msSince(t0);
        passPeakKb = std::max(passPeakKb, ownPeakRssKb());
        record(op, index, result.aggregate);
        addOp(std::move(op));
    }

    // 2. The documented rm-inspect run: metrics registry, sampler,
    // issue trace and periodic snapshots attached, every export
    // written (--json --csv --chrome-trace --snapshot-every).
    {
        Op op("observed", phase);
        op.id = newOp();
        resetPeakRss();
        const auto t0 = Clock::now();
        Span root(spans, "inspect.observed", op.id, 0, index);
        const Program prog = build(c.workload, op.id, root.id());
        PolicyCompile pc;
        {
            Span s(spans, "compiler.compile", op.id, root.id());
            pc = policy.compile(prog, c.config, {});
        }
        MetricsRegistry registry;
        Sampler sampler(registry, 1000);
        IssueTrace trace(1u << 20);
        GpuOptions gpu;
        gpu.obs = ObsSinks{&trace, &registry, &sampler};
        gpu.snapshotEvery = cadence;
        const std::string snap_path = stem + ".snap";
        std::filesystem::remove(snap_path);
        std::uint64_t sim_span = 0;
        std::vector<double> snapshot_bytes;
        gpu.snapshotSink = [&](const GpuSnapshot &snap) {
            std::string bytes;
            {
                Span s(spans, "sim.snapshot_encode", op.id, sim_span);
                bytes = snap.serialize();
            }
            Span s(spans, "io.write", op.id, sim_span);
            writeFile(snap_path + ".tmp", bytes);
            std::filesystem::rename(snap_path + ".tmp", snap_path);
            snapshot_bytes.push_back(static_cast<double>(bytes.size()));
        };
        GpuResult result;
        {
            Span s(spans, "sim.simulate", op.id, root.id());
            sim_span = s.id();
            result = simulateGpu(c.config, pc.program, policy.allocator, gpu);
        }
        const std::uint64_t obs_cycles = result.perSm.front().cycles;
        if (sampler.samples().empty() ||
            sampler.samples().back().cycle != obs_cycles)
            sampler.snapshot(obs_cycles);

        JsonWriter w;
        w.beginObject();
        {
            Span s(spans, "obs.stats_json", op.id, root.id());
            w.key("stats");
            statsToJson(w, result.aggregate);
        }
        {
            Span s(spans, "obs.registry_json", op.id, root.id());
            w.key("metrics");
            registryToJson(w, registry);
            w.key("sampling").beginObject();
            w.key("interval_cycles").value(sampler.interval());
            w.key("samples").value(
                static_cast<std::uint64_t>(sampler.samples().size()));
            w.key("columns").beginArray();
            for (const std::string &column : sampler.columns())
                w.value(column);
            w.endArray();
            w.endObject();
        }
        w.endObject();
        std::string csv, chrome;
        {
            Span s(spans, "obs.sampler_csv", op.id, root.id());
            csv = samplerToCsv(sampler);
        }
        {
            Span s(spans, "obs.chrome_trace", op.id, root.id());
            chrome = chromeTrace(trace, pc.program);
        }
        {
            Span s(spans, "io.write", op.id, root.id());
            writeFile(stem + ".json", w.take());
            writeFile(stem + ".csv", csv);
            writeFile(stem + ".trace.json", chrome);
        }
        // Read the last periodic snapshot back, as --restore would.
        if (snapshot_bytes.empty()) {
            op.fail("no periodic snapshot was written");
        } else {
            std::string bytes;
            {
                Span s(spans, "io.read", op.id, root.id());
                bytes = readFile(snap_path);
            }
            GpuSnapshot decoded;
            {
                Span s(spans, "sim.snapshot_decode", op.id, root.id());
                decoded = GpuSnapshot::deserialize(bytes);
            }
            if (decoded.kernel != result.aggregate.kernelName)
                op.fail("snapshot names kernel '" + decoded.kernel + "'");
        }
        op.ms = msSince(t0);
        passPeakKb = std::max(passPeakKb, ownPeakRssKb());
        record(op, index, result.aggregate);
        const std::lock_guard<std::mutex> lock(opsMutex);
        for (const double b : snapshot_bytes)
            sizes["snapshot_bytes"].push_back(b);
        sizes["trace_bytes"].push_back(static_cast<double>(chrome.size()));
        ops.push_back(std::move(op));
    }

    // 3. The same run under rm-prof (--profile): host-span profiler on,
    // its report and Chrome timeline exported.
    {
        Op op("profiled", phase);
        op.id = newOp();
        resetPeakRss();
        const auto t0 = Clock::now();
        Span root(spans, "inspect.profiled", op.id, 0, index);
        const Program prog = build(c.workload, op.id, root.id());
        PolicyCompile pc;
        {
            Span s(spans, "compiler.compile", op.id, root.id());
            pc = policy.compile(prog, c.config, {});
        }
        GpuResult result;
        Profiler::enable();
        {
            Span s(spans, "sim.simulate", op.id, root.id());
            result = simulateGpu(c.config, pc.program, policy.allocator,
                                 GpuOptions{});
        }
        std::string timeline, table;
        {
            Span s(spans, "obs.profile_export", op.id, root.id());
            const ProfReport report = Profiler::report();
            Profiler::disable();
            timeline = profileChromeTrace(report);
            table = profileTable(report);
        }
        {
            Span s(spans, "io.write", op.id, root.id());
            writeFile(stem + ".profile.json", timeline);
        }
        op.ms = msSince(t0);
        passPeakKb = std::max(passPeakKb, ownPeakRssKb());
        record(op, index, result.aggregate);
        addOp(std::move(op));
    }
}

void
Bench::inspectObserved()
{
    // Each rm-inspect run is a fresh process, whose large buffers (the
    // issue trace, the exports) are always fresh mappings. A fixed mmap
    // threshold keeps this long-lived process from recycling them
    // across runs, which it would do in an order-dependent way.
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const std::vector<int> warmup = indices(plan.at("warmup"));
    const JsonValue &passes = plan.at("passes");
    for (int rep = 0; rep < setupReps; ++rep) {
        const auto t0 = Clock::now();
        for (const int i : warmup)
            inspectCell(i, 'w');
        setupSeconds.push_back(msSince(t0) / 1000.0);
    }
    // Only whole passes are measured, so every run weighs each cell the
    // same however many passes fit in the budget.
    phases([&](char phase, int i) {
        passPeakKb = 0;
        for (const int cell : indices(
                 passes.items[static_cast<std::size_t>(i) %
                              passes.items.size()]))
            inspectCell(cell, phase);
        if (phase == 'u')
            sizes["peak_rss_kb"].push_back(passPeakKb);
    });
}

// ---------------------------------------------------------------- serve

/**
 * Drive @p stream through the daemon over two connections in a closed
 * loop: each keeps `window` requests outstanding and sends its next one
 * only when an answer comes back. A stream entry [cell, pick] asks for
 * that cell cold; [-1, pick] repeats a cell this client has already had
 * answered (answered[pick % answered.size()]), so it is a cache hit.
 */
void
Bench::closedLoop(const Daemon &daemon, const JsonValue &stream, char phase)
{
    const int connections = jsonInt(plan, "connections", 2);
    const std::size_t window =
        static_cast<std::size_t>(jsonInt(plan, "window", 2));
    std::mutex mutex;
    std::condition_variable answeredCv;
    std::size_t next = 0;
    std::vector<int> answered;
    std::string failure;

    auto worker = [&](int conn_index) {
        struct Pending
        {
            int cell;
            Clock::time_point sent;
            std::uint64_t op;
            std::uint64_t span;
        };
        try {
            LineConnection conn(daemon.port());
            std::map<std::string, Pending> pending;
            std::optional<std::pair<int, std::uint64_t>> held;
            int sent = 0;
            for (;;) {
                while (pending.size() < window) {
                    std::pair<int, std::uint64_t> item;
                    {
                        std::unique_lock<std::mutex> lock(mutex);
                        if (held) {
                            item = *held;
                            held.reset();
                        } else if (next < stream.items.size()) {
                            const JsonValue &e = stream.items[next++];
                            item = {static_cast<int>(e.items.at(0).number),
                                    static_cast<std::uint64_t>(
                                        e.items.at(1).number)};
                        } else {
                            break;
                        }
                        if (item.first < 0) {
                            if (answered.empty() && !pending.empty()) {
                                held = item;
                                break;
                            }
                            answeredCv.wait_for(
                                lock, std::chrono::seconds(60), [&] {
                                    return !answered.empty() ||
                                           !failure.empty();
                                });
                            if (answered.empty())
                                throw std::runtime_error(
                                    "no cold answer arrived to repeat");
                            item.first = answered[item.second %
                                                  answered.size()];
                        }
                    }
                    const Cell &c = cells[static_cast<std::size_t>(item.first)];
                    Pending p{item.first, {}, newOp(), 0};
                    p.span = spans.open("serve.request", p.op, 0, item.first);
                    JobRequest request;
                    request.id = std::to_string(conn_index) + "-" +
                                 std::to_string(sent++);
                    request.client = "perfbench-" + std::to_string(conn_index);
                    request.workload = c.workload;
                    request.policy = c.policy;
                    request.arch = c.arch;
                    std::string line;
                    {
                        Span s(spans, "serve.encode", p.op, p.span);
                        line = encodeJobRequest(request);
                    }
                    p.sent = Clock::now();
                    conn.send(line);
                    pending.emplace(request.id, p);
                }
                if (pending.empty())
                    break;
                const std::string line = conn.readLine();
                const auto received = Clock::now();
                JobResponse response;
                try {
                    response = decodeJobResponse(parseJson(line));
                } catch (const std::exception &e) {
                    throw std::runtime_error(std::string("bad response: ") +
                                             e.what());
                }
                const auto decoded = Clock::now();
                const auto it = pending.find(response.id);
                if (it == pending.end())
                    throw std::runtime_error("unexpected response id '" +
                                             response.id + "'");
                const Pending p = it->second;
                pending.erase(it);
                spans.add("serve.decode", p.op, p.span, received, decoded);
                Op op(response.cached ? "hit" : "cold", phase);
                op.id = p.op;
                op.ms = std::chrono::duration<double, std::milli>(received -
                                                                  p.sent)
                            .count();
                if (response.outcome != JobOutcome::Ok || !response.hasStats) {
                    op.fail(std::string("status ") +
                            jobOutcomeName(response.outcome) + ": " +
                            response.error);
                    op.cells.push_back({static_cast<std::uint64_t>(p.cell), 0,
                                        0, 0});
                } else {
                    record(op, p.cell, response.stats);
                }
                spans.close(p.span);
                if (!response.cached) {
                    const std::lock_guard<std::mutex> lock(mutex);
                    answered.push_back(p.cell);
                    answeredCv.notify_all();
                }
                addOp(std::move(op));
            }
        } catch (const std::exception &e) {
            const std::lock_guard<std::mutex> lock(mutex);
            if (failure.empty())
                failure = e.what();
            next = stream.items.size();
            answeredCv.notify_all();
        }
    };
    std::vector<std::thread> threads;
    for (int i = 0; i < connections; ++i)
        threads.emplace_back(worker, i);
    for (std::thread &t : threads)
        t.join();
    if (!failure.empty())
        throw std::runtime_error("serve round: " + failure);
}

void
Bench::serveCounters(const Daemon &daemon)
{
    LineConnection conn(daemon.port());
    conn.send("{\"cmd\": \"metrics\", \"id\": \"perfbench\"}");
    const JsonValue doc = parseJson(conn.readLine());
    const JsonValue &registry = doc.at("metrics").at("counters");
    for (const auto &[name, value] : registry.members)
        counters[name] += value.number;
}

/**
 * Traced run only: every cell of the stream once in-process through the
 * same layers a daemon worker crosses (build, compile, lint, simulate,
 * stats export, fsync'd journal append), so a served round trip can be
 * split into the cell's own work and the serving overhead.
 */
void
Bench::replayCells()
{
    const std::string path = workDir + "/replay-journal.jsonl";
    std::filesystem::remove(path);
    JsonlCheckpoint journal(path, 1);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const PolicySpec &policy = PolicyRegistry::instance().at(c.policy);
        Op op("replay", 't');
        op.id = newOp();
        const auto t0 = Clock::now();
        Span root(spans, "serve.replay_cell", op.id, 0,
                  static_cast<int>(i));
        const Program prog = build(c.workload, op.id, root.id());
        PolicyCompile pc;
        {
            Span s(spans, "compiler.compile", op.id, root.id());
            pc = policy.compile(prog, c.config, {});
        }
        {
            Span s(spans, "analysis.lint", op.id, root.id());
            LintOptions lint;
            lint.config = &c.config;
            lint.disabledChecks = policy.lintSuppressions;
            if (!runLints(pc.program, lint).clean())
                op.fail("lint failed");
        }
        GpuResult result;
        {
            Span s(spans, "sim.simulate", op.id, root.id());
            result = simulateGpu(c.config, pc.program, policy.allocator,
                                 GpuOptions{});
        }
        {
            Span s(spans, "obs.stats_json", op.id, root.id());
            statsToJson(result.aggregate);
        }
        {
            Span s(spans, "core.journal_append", op.id, root.id());
            SweepCase key;
            key.workload = c.workload;
            key.policy = c.policy;
            key.arch = c.arch;
            key.config = c.config;
            journal.record(sweepCaseKey(key), result.aggregate);
        }
        op.ms = msSince(t0);
        record(op, static_cast<int>(i), result.aggregate);
        addOp(std::move(op));
    }
}

void
Bench::serveClosed()
{
    const JsonValue &warmup = plan.at("warmup");
    const JsonValue &rounds = plan.at("passes");
    int journals = 0;
    auto freshJournal = [&]() {
        const std::string path =
            workDir + "/serve-" + std::to_string(journals++ % 2) + ".jsonl";
        std::filesystem::remove(path);
        return path;
    };
    // Set-up: daemon start to ready, plus a warm-up stream of cold
    // requests on that daemon.
    for (int rep = 0; rep < setupReps; ++rep) {
        const auto t0 = Clock::now();
        Daemon daemon(serveBin, freshJournal());
        closedLoop(daemon, warmup, 'w');
        setupSeconds.push_back(msSince(t0) / 1000.0);
    }
    phases([&](char phase, int i) {
        Daemon daemon(serveBin, freshJournal());
        const auto t0 = Clock::now();
        closedLoop(daemon,
                   rounds.items[static_cast<std::size_t>(i) %
                                rounds.items.size()],
                   phase);
        loopSeconds[phase] += msSince(t0) / 1000.0;
        serveCounters(daemon);
        if (phase == 'u')
            sizes["peak_rss_kb"].push_back(
                static_cast<double>(daemon.peakRssKb()));
    });
    if (traced)
        replayCells();
}

void
Bench::write(const std::string &path) const
{
    JsonWriter w;
    w.beginObject();
    w.key("setup_s").beginArray();
    for (const double s : setupSeconds)
        w.value(s);
    w.endArray();
    w.key("threads").value(static_cast<std::uint64_t>(width));
    w.key("loop_s").beginObject();
    for (const auto &[phase, s] : loopSeconds)
        w.key(std::string(1, phase)).value(s);
    w.endObject();
    w.key("counters").beginObject();
    for (const auto &[name, value] : counters)
        w.key(name).value(value);
    w.endObject();
    w.key("sizes").beginObject();
    for (const auto &[name, values] : sizes) {
        w.key(name).beginArray();
        for (const double v : values)
            w.value(v);
        w.endArray();
    }
    w.endObject();
    w.key("ops").beginArray();
    for (const Op &op : ops) {
        w.beginObject();
        w.key("kind").value(op.kind);
        w.key("phase").value(std::string(1, op.phase));
        w.key("id").value(op.id);
        w.key("ms").value(op.ms);
        w.key("ok").value(op.ok);
        if (!op.ok)
            w.key("error").value(op.error);
        w.key("cells").beginArray();
        for (const auto &c : op.cells) {
            w.beginArray();
            for (const std::uint64_t v : c)
                w.value(v);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    // Slot accounting and policy counters of each distinct cell run.
    w.key("cellstats").beginArray();
    for (const auto &[cell, entry] : reference) {
        const SimStats &s = entry.first;
        const GpuConfig &config = cells[static_cast<std::size_t>(cell)].config;
        w.beginObject();
        w.key("cell").value(cell);
        w.key("schedulers").value(config.numSchedulers);
        w.key("cycles").value(s.cycles);
        w.key("instructions").value(s.instructions);
        w.key("issued").value(s.issuedSlots);
        w.key("idle").value(s.idleSchedulerSlots);
        w.key("scoreboard").value(s.scoreboardStalls);
        w.key("mem").value(s.memStructuralStalls);
        w.key("barrier").value(s.barrierStalls);
        w.key("acquire").value(s.acquireStalls);
        w.key("resource").value(s.resourceStalls);
        w.key("nowarp").value(s.noWarpStalls);
        w.key("acquire_attempts").value(s.acquireAttempts);
        w.key("acquire_successes").value(s.acquireSuccesses);
        w.key("emergency_spills").value(s.emergencySpills);
        w.endObject();
    }
    w.endArray();
    w.key("spans");
    spans.write(w);
    w.endObject();
    writeFile(path, w.take());
}

/** Every cell of the 160-cell universe, for the committed expected values. */
int
captureExpected(const std::string &path)
{
    std::vector<SweepCase> grid;
    for (const char *arch : {"GTX480", "half-RF"})
        for (const WorkloadEntry &entry : paperSuite())
            for (const char *policy :
                 {"baseline", "regmutex", "paired", "owf", "rfv"}) {
                SweepCase c;
                c.workload = entry.spec.name;
                c.policy = policy;
                c.arch = arch;
                c.config = archConfig(arch);
                grid.push_back(std::move(c));
            }
    const std::vector<SweepResult> results = runSweep(grid);
    JsonWriter w;
    w.beginObject();
    w.key("occupancy_limited").beginArray();
    for (const std::string &name : occupancyLimitedSet())
        w.value(name);
    w.endArray();
    w.key("half_rf").beginArray();
    for (const std::string &name : halfRfSet())
        w.value(name);
    w.endArray();
    w.key("cells").beginArray();
    for (const SweepResult &r : results) {
        if (!r.ok()) {
            std::cerr << "cell " << sweepCaseKey(r.spec) << " failed: "
                      << r.error << "\n";
            continue;
        }
        w.beginArray();
        w.value(r.spec.workload).value(r.spec.policy).value(r.spec.arch);
        w.value(r.stats().cycles).value(r.stats().instructions);
        w.value(r.stats().ctasCompleted);
        w.endArray();
    }
    w.endArray();
    w.endObject();
    writeFile(path, w.take() + "\n");
    return 0;
}

int
usage()
{
    std::cerr << "usage: rm-perfbench --plan PLAN.json --out RAW.json "
                 "--seconds S --trace 0|1 --work-dir DIR "
                 "[--serve-bin PATH]\n"
                 "       rm-perfbench --capture-expected OUT.json\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0)
            return usage();
        args[flag.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0)
        return usage();
    try {
        if (args.count("capture-expected"))
            return captureExpected(args["capture-expected"]);
        for (const char *required : {"plan", "out", "seconds", "work-dir"})
            if (!args.count(required))
                return usage();
        const JsonValue plan = parseJson(readFile(args["plan"]));
        Bench bench(plan, std::stod(args["seconds"]), args["trace"] == "1",
                    args["work-dir"], args["serve-bin"]);
        bench.run();
        bench.write(args["out"]);
    } catch (const std::exception &e) {
        std::cerr << "rm-perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
