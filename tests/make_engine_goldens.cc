/**
 * @file
 * Golden generator for tests/test_engine_equivalence.cc. Run from a
 * known-good build to freeze the engine's observable behaviour:
 *
 *     make-engine-goldens OUT_DIR
 *
 * emits, for the grids of tests/engine_golden_cases.hh:
 *
 *  - engine_stats.tsv: one "case-key <TAB> statsToJson" line per cell
 *    of goldenCases(). The committed copy was produced by the
 *    pre-refactor engine: heap-of-Events, AoS SimWarp, no
 *    skip-ahead.
 *  - engine_stats_wide.tsv: the same for wideGoldenCases(), minus the
 *    cells that throw KernelDoesNotFitError. The committed copy was
 *    produced by the engine that still had separate one-word and
 *    sweeping issue paths, i.e. by the sweeping path these geometries
 *    took there.
 *  - engine_v2.snap: a mid-run GpuSnapshot in whatever codec version
 *    the generating build writes. The committed copy is a v2-codec
 *    file; regenerating replaces it with the current codec.
 *
 * Write into a scratch directory and copy over only the fixture you
 * mean to refreeze. test_engine_equivalence.cc replays the grids on
 * the current engine and demands bit-identical SimStats, so an
 * accidental behaviour change in an engine rewrite fails loudly
 * against history rather than silently redefining truth.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "engine_golden_cases.hh"
#include "obs/export.hh"
#include "sim/snapshot.hh"

namespace {

/** Write one "key <TAB> stats" line per cell of @p cases to @p path;
 *  cells whose kernel does not fit are skipped when @p skip_unfit. */
bool
writeGrid(const std::string &path,
          const std::vector<rm::test::GoldenCase> &cases, bool skip_unfit)
{
    std::ofstream tsv(path);
    if (!tsv) {
        std::cerr << "cannot write " << path << '\n';
        return false;
    }
    for (const rm::test::GoldenCase &c : cases) {
        rm::PolicyRun run;
        try {
            run = rm::test::runGoldenCase(c);
        } catch (const rm::KernelDoesNotFitError &) {
            if (!skip_unfit)
                throw;
            std::cout << c.key << ": does not fit (omitted)\n";
            continue;
        }
        if (!run.result.completed()) {
            std::cerr << c.key << ": did not complete\n";
            return false;
        }
        tsv << c.key << '\t' << rm::statsToJson(run.stats()) << '\n';
        std::cout << c.key << ": cycles=" << run.stats().cycles << '\n';
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::cerr << "usage: make-engine-goldens OUT_DIR\n";
        return 2;
    }
    const std::string dir = argv[1];

    if (!writeGrid(dir + "/engine_stats.tsv", rm::test::goldenCases(),
                   false) ||
        !writeGrid(dir + "/engine_stats_wide.tsv",
                   rm::test::wideGoldenCases(), true)) {
        return 1;
    }

    // Mid-run snapshot fixture: regmutex/BFS cut at cycle 2500. The
    // resumed run must reproduce BFS/regmutex/rep/clean exactly.
    rm::RunOptions cut;
    cut.gpu.control.maxCycles = 2500;
    const rm::PolicyRun preempted = rm::runPolicy(
        "regmutex", rm::buildWorkload("BFS"), rm::gtx480Config(), cut);
    if (preempted.result.completed() || !preempted.result.snapshot) {
        std::cerr << "snapshot fixture: expected a preempted run\n";
        return 1;
    }
    rm::writeSnapshotFile(dir + "/engine_v2.snap",
                          *preempted.result.snapshot);
    std::cout << "snapshot fixture written (cut at cycle "
              << preempted.stats().cycles << ")\n";
    return 0;
}
