#ifndef RM_TESTS_ENGINE_GOLDEN_CASES_HH
#define RM_TESTS_ENGINE_GOLDEN_CASES_HH

/**
 * @file
 * The engine-equivalence grids, shared by the golden generator
 * (tests/make_engine_goldens.cc) and the replay suite
 * (tests/test_engine_equivalence.cc) so the two cannot drift apart.
 *
 *  - goldenCases(): the original grid behind engine_stats.tsv (GTX480,
 *    BFS/SPMV, clean and faulted, one-word geometry).
 *  - wideGoldenCases(): the grid behind engine_stats_wide.tsv — a
 *    128-warp machine and a 96-register kernel, i.e. issue masks of
 *    more than one 64-bit word. Cells whose kernel does not fit the
 *    machine under the policy (KernelDoesNotFitError) are absent from
 *    the frozen file; the replay demands they still do not fit.
 */

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/config.hh"
#include "workloads/suite.hh"

namespace rm {
namespace test {

struct GoldenCase
{
    std::string key;
    std::string workload;
    std::string policy;
    GpuConfig config = gtx480Config();
    bool faulted = false;
    bool fullMachine = false;  ///< 4 SMs running gridCtas CTAs
    int gridCtas = 13;         ///< full-machine grid (uneven share)
    /** When > 0, rebuild the workload's spec with this register
     *  budget (phases peaking at the old budget peak at the new one). */
    int regs = 0;
};

/** The fault plan every faulted cell runs under. */
inline FaultPlan
goldenFaultPlan()
{
    FaultPlan plan;
    plan.denyAcquire = {1000, 3000};
    plan.memSpike = {500, 2500};
    plan.memSpikeFactor = 4;
    return plan;
}

inline const std::vector<std::string> &
goldenPolicies()
{
    static const std::vector<std::string> policies = {
        "baseline", "regmutex", "paired", "owf", "rfv"};
    return policies;
}

/** The engine_stats.tsv grid. */
inline std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    for (const std::string &policy : goldenPolicies()) {
        cases.push_back({"BFS/" + policy + "/rep/clean", "BFS", policy});
        GoldenCase faulted{"BFS/" + policy + "/rep/faulted", "BFS",
                           policy};
        faulted.faulted = true;
        cases.push_back(faulted);
    }
    for (const std::string policy : {"regmutex", "rfv"}) {
        GoldenCase full{"BFS/" + policy + "/full4/clean", "BFS", policy};
        full.fullMachine = true;
        cases.push_back(full);
    }
    cases.push_back({"SPMV/baseline/rep/clean", "SPMV", "baseline"});
    cases.push_back({"SPMV/regmutex/rep/clean", "SPMV", "regmutex"});
    return cases;
}

/**
 * Kepler with twice the warp slots and threads and 1.25x the registers
 * per SM: up to 128 resident warps, so slot masks span two words, and
 * a register file that still binds BFS's baseline (6 CTAs, 96 warps)
 * while RegMutex fits 8 (128 warps), so the policies differ.
 */
inline GpuConfig
wideWarpConfig()
{
    GpuConfig config = keplerConfig();
    config.maxWarpsPerSm = 128;
    config.maxThreadsPerSm = 4096;
    config.registersPerSm = 81920;
    return config;
}

/** Register budget of the wide-register cells: two scoreboard words. */
constexpr int kWideRegs = 96;

/** The engine_stats_wide.tsv grid. */
inline std::vector<GoldenCase>
wideGoldenCases()
{
    std::vector<GoldenCase> cases;
    for (const std::string workload : {"BFS", "SPMV"}) {
        for (const std::string &policy : goldenPolicies()) {
            cases.push_back({workload + "/" + policy + "/k128/rep",
                             workload, policy, wideWarpConfig()});
        }
    }
    GoldenCase full{"BFS/rfv/k128/full4", "BFS", "rfv", wideWarpConfig()};
    full.fullMachine = true;
    full.gridCtas = 37;  // up to 10 CTAs (> 64 warps) on an SM
    cases.push_back(full);

    const std::string wide = "CUTCP" + std::to_string(kWideRegs);
    for (const auto &[arch, config] :
         {std::pair{"gtx480", gtx480Config()},
          std::pair{"kepler", keplerConfig()}}) {
        for (const std::string &policy : goldenPolicies()) {
            GoldenCase c{wide + "/" + policy + "/" + arch + "/rep",
                         "CUTCP", policy, config};
            c.regs = kWideRegs;
            cases.push_back(c);
        }
    }
    return cases;
}

/** Run one cell on top of @p options (sinks, snapshot cadence).
 *  @p threads only matters for full-machine cells. */
inline PolicyRun
runGoldenCase(const GoldenCase &c, int threads = 1, bool skip_ahead = true,
              RunOptions options = {})
{
    Program program;
    if (c.regs > 0) {
        KernelSpec spec = workload(c.workload).spec;
        for (PhaseSpec &phase : spec.phases) {
            if (phase.peak == spec.regs)
                phase.peak = c.regs;
        }
        spec.regs = c.regs;
        spec.name = c.workload + std::to_string(c.regs);
        program = buildKernel(spec);
    } else {
        program = buildWorkload(c.workload);
    }
    GpuConfig config = c.config;
    options.gpu.control.skipAhead = skip_ahead;
    if (c.fullMachine) {
        program.info.gridCtas = c.gridCtas;
        config.numSms = 4;
        options.gpu.mode = GpuOptions::Mode::FullMachine;
        options.gpu.threads = threads;
    }
    if (c.faulted)
        options.gpu.fault = goldenFaultPlan();
    return runPolicy(c.policy, program, config, options);
}

} // namespace test
} // namespace rm

#endif // RM_TESTS_ENGINE_GOLDEN_CASES_HH
