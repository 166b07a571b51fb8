/**
 * @file
 * Standalone RegMutex compiler driver: reads a kernel in the textual
 * assembly, runs the full pipeline (liveness, |Es| selection,
 * compaction, directive injection, validation) for a chosen
 * architecture, and writes the transformed kernel back as assembly —
 * the `.baseRegs`/`.extRegs` directives carry the split for the
 * hardware. Compilation statistics go to stderr so the output stays
 * pipeable.
 *
 * Usage:
 *   regmutex_cc [--half-rf] [--es N] [--coalesce N] [--report]
 *               <kernel.asm>   (or a bundled workload name)
 *
 * --report adds, on stderr, what the compiler derived: the input's
 * register pressure per basic block, the |Es| candidate table, the
 * chosen split, the validator's verdict on the output, and the
 * liveness matrix of the transformed kernel.
 *
 * Example:
 *   ./examples/regmutex_cc BFS | ./examples/regmutex_cc -   # idempotence check fails: already compiled
 */

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/cfg.hh"
#include "analysis/liveness.hh"
#include "analysis/liveness_report.hh"
#include "common/cli.hh"
#include "common/errors.hh"
#include "common/table.hh"
#include "compiler/pipeline.hh"
#include "compiler/validator.hh"
#include "isa/asm_parser.hh"
#include "workloads/suite.hh"

namespace {

int
usage()
{
    std::cerr << "usage: regmutex_cc [--half-rf] [--es N] [--coalesce N] "
                 "[--report] <kernel.asm|name|->\n";
    return 2;
}

/** Per-block min/max live-register counts of @p program. */
std::string
pressureTable(const rm::Program &program)
{
    using namespace rm;
    const Cfg cfg = Cfg::build(program);
    const Liveness live = Liveness::compute(program, cfg);
    Table table({"block", "insts", "min live", "max live"});
    for (const auto &block : cfg.blocks()) {
        int lo = 1 << 30, hi = 0;
        for (int i = block.first; i <= block.last; ++i) {
            lo = std::min(lo, live.liveCount(i));
            hi = std::max(hi, live.liveCount(i));
        }
        Row row;
        row << block.id << block.size() << lo << hi;
        table.addRow(row.take());
    }
    return table.toText();
}

/** The |Es| heuristic's candidates, chosen split and validator verdict. */
std::string
selectionReport(const rm::CompileResult &compiled)
{
    using namespace rm;
    Table cands({"|Es|", "|Bs|", "CTAs", "warps", "SRP sections",
                 "barrier rule", "half rule"});
    for (const auto &cand : compiled.selection.candidates) {
        Row row;
        row << cand.es << cand.bs << cand.ctasPerSm << cand.warpsPerSm
            << cand.srpSections << (cand.meetsBarrierRule ? "ok" : "X")
            << (cand.passesHalfRule ? "pass" : "fail");
        cands.addRow(row.take());
    }
    const ValidationReport verdict = validateRegMutex(compiled.program);
    std::ostringstream os;
    os << "Extended-set size candidates:\n" << cands.toText()
       << "\nChosen: |Bs| = " << compiled.selection.bs
       << ", |Es| = " << compiled.selection.es << " ("
       << compiled.selection.srpSections << " SRP sections); "
       << "residual low-pressure held instructions: "
       << compiled.wastedHeldInsts << "\n"
       << "Validator: " << (verdict.ok ? "OK" : verdict.error) << "\n";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rm;

    GpuConfig config = gtx480Config();
    CompileOptions options;
    bool report = false;
    std::string target;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto nextInt = [&] {
                return cli::parseInt(arg, cli::value(argc, argv, i));
            };
            if (arg == "--half-rf") {
                config = halfRegisterFile(config);
            } else if (arg == "--es") {
                options.forcedEs = nextInt();
            } else if (arg == "--coalesce") {
                options.coalesceGap = nextInt();
            } else if (arg == "--report") {
                report = true;
            } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
                return usage();
            } else {
                target = arg;
            }
        }
        if (target.empty()) {
            std::cerr << "regmutex_cc: no input\n";
            return 2;
        }

        const Program program = loadProgram(target);

        const CompileResult compiled =
            compileRegMutex(program, config, options);

        if (compiled.enabled()) {
            std::cerr << "regmutex_cc: " << program.info.name << ": |Bs| = "
                      << compiled.selection.bs << ", |Es| = "
                      << compiled.selection.es << ", SRP sections = "
                      << compiled.selection.srpSections << ", "
                      << compiled.injected.acquires << " acquires, "
                      << compiled.injected.releases << " releases, "
                      << compiled.movCuts << " compaction MOVs\n";
        } else {
            std::cerr << "regmutex_cc: " << program.info.name
                      << ": not register-limited; kernel unchanged\n";
        }

        std::cout << emitProgram(compiled.program);
        if (report) {
            std::cerr << "Register pressure by block:\n"
                      << pressureTable(program) << "\n";
            if (compiled.enabled())
                std::cerr << selectionReport(compiled) << "\n";
            const Cfg cfg = Cfg::build(compiled.program);
            const Liveness live =
                Liveness::compute(compiled.program, cfg);
            std::cerr << renderLiveness(compiled.program, live,
                                        compiled.program.regmutex
                                            .baseRegs);
        }
        return 0;
    } catch (const UsageError &e) {
        std::cerr << "regmutex_cc: " << e.what() << "\n";
        return usage();
    } catch (const FatalError &e) {
        std::cerr << "regmutex_cc: error: " << e.what() << "\n";
        return 1;
    }
}
