/**
 * rm-fuzz: deterministic differential fuzzing CLI (docs/ROBUSTNESS.md,
 * "Fuzzing"). Three modes:
 *
 *  Campaign (default): generate cases from consecutive seeds, run the
 *  oracle registry over each, triage findings into signature buckets,
 *  optionally shrink each new bucket's case (--minimize) and write
 *  `.repro` files (--out DIR) plus a JSONL bucket report (--json).
 *
 *      rm-fuzz --seed 1 --cases 500 --minimize --out repros/
 *      rm-fuzz --time-budget 60 --json findings.jsonl
 *
 *  Replay: re-check committed `.repro` files. A repro with a recorded
 *  signature must reproduce exactly that signature; one with an empty
 *  signature (the corpus form) must pass clean.
 *
 *      rm-fuzz --replay tests/fuzz_corpus/arch-volta.repro
 *      rm-fuzz --corpus tests/fuzz_corpus
 *
 *  Self-test: plant each known bug class and prove its oracle catches
 *  it and the minimizer shrinks a failing case while preserving the
 *  signature.
 *
 *      rm-fuzz --self-test
 *
 * Exit codes: 0 clean, 1 findings (or failed replay/self-test),
 * 2 usage error.
 */

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/errors.hh"
#include "fuzz/gen.hh"
#include "fuzz/minimize.hh"
#include "fuzz/oracles.hh"
#include "fuzz/triage.hh"
#include "obs/json.hh"

namespace {

int
usage(std::ostream &os)
{
    os << "usage: rm-fuzz [mode] [options]\n"
          "\n"
          "campaign mode (default):\n"
          "  --seed N          first seed (decimal or 0x hex; default 1)\n"
          "  --cases N         cases to run (default 100; 0 = unbounded,\n"
          "                    requires --time-budget)\n"
          "  --time-budget S   stop after S seconds of wall time\n"
          "  --oracles a,b     run only these oracles (default: all)\n"
          "  --minimize        shrink the first case of each new finding\n"
          "  --out DIR         write one .repro file per unique finding\n"
          "  --json PATH       write the finding buckets as JSONL\n"
          "\n"
          "replay mode:\n"
          "  --replay FILE     re-check one .repro (repeatable)\n"
          "  --corpus DIR      re-check every .repro in DIR\n"
          "\n"
          "other:\n"
          "  --self-test       prove each oracle catches its planted bug\n"
          "  --list-oracles    print the oracle registry and exit\n"
          "exit status: 0 clean, 1 findings, 2 usage error\n";
    return 2;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        rm::fatal("cannot read ", path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        rm::fatal("cannot write ", path);
    out << content;
    out.flush();
    if (!out)
        rm::fatal("write failed for ", path);
}

std::string
reproFileName(const std::string &signature)
{
    std::string name = signature;
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_')
            c = '-';
    return name + ".repro";
}

int
listOracles()
{
    for (const rm::Oracle &oracle : rm::fuzzOracles())
        std::cout << oracle.id << ": " << oracle.description << "\n";
    return 0;
}

int
selfTest(const rm::OracleOptions &baseOptions)
{
    bool ok = true;
    for (const rm::PlantedBugInfo &info : rm::plantedBugCatalog()) {
        const rm::FuzzCase fuzzCase = rm::plantedBugCase(info.bug);
        rm::OracleOptions options = baseOptions;
        options.planted = info.bug;

        const std::vector<rm::OracleFinding> findings =
            rm::runOracles(fuzzCase, options);
        std::string signature;
        for (const rm::OracleFinding &finding : findings)
            if (finding.oracle == info.oracle) {
                signature = finding.signature;
                break;
            }
        if (signature.empty()) {
            std::cout << "FAIL " << info.name << ": oracle " << info.oracle
                      << " reported nothing\n";
            ok = false;
            continue;
        }

        // The shrink proof: a strictly smaller case, same signature.
        rm::MinimizeOptions shrink;
        shrink.oracle = options;
        shrink.oracle.oracles = {info.oracle};
        const rm::MinimizeResult reduced =
            rm::minimizeCase(fuzzCase, signature, shrink);
        const bool shrunk =
            rm::caseSize(reduced.reduced) < rm::caseSize(fuzzCase);
        if (!shrunk) {
            std::cout << "FAIL " << info.name
                      << ": minimizer could not shrink (size "
                      << rm::caseSize(fuzzCase) << " -> "
                      << rm::caseSize(reduced.reduced) << ")\n";
            ok = false;
            continue;
        }
        std::cout << "ok " << info.name << ": " << signature << " (size "
                  << rm::caseSize(fuzzCase) << " -> "
                  << rm::caseSize(reduced.reduced) << " in "
                  << reduced.accepted << " steps, " << reduced.probes
                  << " probes)\n";
    }
    std::cout << (ok ? "self-test: all oracles catch their planted bugs\n"
                     : "self-test: FAILED\n");
    return ok ? 0 : 1;
}

int
replayFiles(const std::vector<std::string> &paths,
            const rm::OracleOptions &options)
{
    bool ok = true;
    for (const std::string &path : paths) {
        try {
            const rm::ReproFile repro =
                rm::reproFromJson(rm::parseJson(readFile(path)));
            std::string why;
            if (!rm::validateCase(repro.fuzzCase, &why))
                rm::fatal("invalid case: ", why);
            const std::vector<rm::OracleFinding> findings =
                rm::runOracles(repro.fuzzCase, options);
            bool matched;
            if (repro.signature.empty()) {
                matched = findings.empty();
                if (!matched) {
                    std::cout << "FAIL " << path << ": expected clean, got "
                              << findings.size() << " finding(s):\n";
                    for (const rm::OracleFinding &finding : findings)
                        std::cout << "  " << finding.signature << ": "
                                  << finding.message << "\n";
                }
            } else {
                matched = false;
                for (const rm::OracleFinding &finding : findings)
                    matched = matched || finding.signature == repro.signature;
                if (!matched)
                    std::cout << "FAIL " << path
                              << ": signature " << repro.signature
                              << " did not reproduce\n";
            }
            if (matched)
                std::cout << "ok " << path
                          << (repro.signature.empty()
                                  ? " (clean)"
                                  : " (" + repro.signature + ")")
                          << "\n";
            ok = ok && matched;
        } catch (const rm::FatalError &e) {
            std::cout << "FAIL " << path << ": " << e.what() << "\n";
            ok = false;
        }
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1;
    std::uint64_t cases = 100;
    bool casesExplicit = false;
    double timeBudget = 0.0;
    bool minimize = false;
    bool runSelfTest = false;
    std::string outDir;
    std::string jsonPath;
    std::vector<std::string> replays;
    std::string corpusDir;
    rm::OracleOptions oracleOptions;

    const auto next = [&](int &i) { return rm::cli::value(argc, argv, i); };
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--seed")
                seed = rm::cli::parseU64(arg, next(i), /*hex=*/true);
            else if (arg == "--cases") {
                cases = rm::cli::parseU64(arg, next(i), /*hex=*/true);
                casesExplicit = true;
            } else if (arg == "--time-budget")
                timeBudget = rm::cli::parseNumber(arg, next(i));
            else if (arg == "--oracles")
                oracleOptions.oracles = splitList(next(i));
            else if (arg == "--minimize")
                minimize = true;
            else if (arg == "--out")
                outDir = next(i);
            else if (arg == "--json")
                jsonPath = next(i);
            else if (arg == "--replay")
                replays.push_back(next(i));
            else if (arg == "--corpus")
                corpusDir = next(i);
            else if (arg == "--self-test")
                runSelfTest = true;
            else if (arg == "--list-oracles")
                return listOracles();
            else if (arg == "--help" || arg == "-h")
                return usage(std::cout), 0;
            else {
                std::cerr << "rm-fuzz: unknown argument " << arg << "\n";
                return usage(std::cerr);
            }
        }
    } catch (const rm::UsageError &e) {
        std::cerr << "rm-fuzz: " << e.what() << "\n";
        return usage(std::cerr);
    }
    // A time budget without an explicit case count means "run until
    // the clock expires", not "stop at the default 100".
    if (timeBudget > 0.0 && !casesExplicit)
        cases = 0;
    if (cases == 0 && timeBudget <= 0.0 && !runSelfTest && replays.empty() &&
        corpusDir.empty()) {
        std::cerr << "rm-fuzz: --cases 0 needs --time-budget\n";
        return usage(std::cerr);
    }

    try {
        if (runSelfTest)
            return selfTest(oracleOptions);

        if (!corpusDir.empty()) {
            std::vector<std::string> found;
            for (const auto &entry :
                 std::filesystem::directory_iterator(corpusDir))
                if (entry.is_regular_file() &&
                    entry.path().extension() == ".repro")
                    found.push_back(entry.path().string());
            std::sort(found.begin(), found.end());
            if (found.empty())
                rm::fatal("no .repro files in ", corpusDir);
            replays.insert(replays.end(), found.begin(), found.end());
        }
        if (!replays.empty())
            return replayFiles(replays, oracleOptions);

        // Campaign.
        if (!outDir.empty())
            std::filesystem::create_directories(outDir);
        const auto start = std::chrono::steady_clock::now();
        const auto expired = [&] {
            if (timeBudget <= 0.0)
                return false;
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            return elapsed.count() >= timeBudget;
        };

        rm::Triage triage;
        std::uint64_t ran = 0;
        for (std::uint64_t i = 0; (cases == 0 || i < cases) && !expired();
             ++i) {
            const std::uint64_t caseSeed = seed + i;
            const rm::FuzzCase fuzzCase = rm::generateCase(caseSeed);
            std::string why;
            if (!rm::validateCase(fuzzCase, &why)) {
                // A generator that emits invalid cases is itself a bug;
                // report it under its own signature instead of letting
                // every policy fail with the same downstream error.
                rm::OracleFinding finding;
                finding.oracle = "generator";
                finding.signature = "generator:invalid-case";
                finding.message = why;
                ++ran;
                if (triage.record(finding, fuzzCase))
                    std::cout << "NEW " << finding.signature << " (seed 0x"
                              << std::hex << caseSeed << std::dec
                              << "): " << why << "\n";
                continue;
            }
            const std::vector<rm::OracleFinding> findings =
                rm::runOracles(fuzzCase, oracleOptions);
            ++ran;
            for (const rm::OracleFinding &finding : findings) {
                const bool fresh = triage.record(finding, fuzzCase);
                if (!fresh)
                    continue;
                std::cout << "NEW " << finding.signature << " (seed 0x"
                          << std::hex << caseSeed << std::dec << "): "
                          << finding.message << "\n";
                rm::FuzzCase repro = fuzzCase;
                if (minimize) {
                    rm::MinimizeOptions shrink;
                    shrink.oracle = oracleOptions;
                    shrink.oracle.oracles = {finding.oracle};
                    const rm::MinimizeResult reduced = rm::minimizeCase(
                        fuzzCase, finding.signature, shrink);
                    repro = reduced.reduced;
                    triage.attachRepro(finding.signature, repro);
                    std::cout << "  minimized: size "
                              << rm::caseSize(fuzzCase) << " -> "
                              << rm::caseSize(repro) << " ("
                              << reduced.accepted << " steps)\n";
                }
                if (!outDir.empty()) {
                    rm::ReproFile file;
                    file.oracle = finding.oracle;
                    file.signature = finding.signature;
                    file.note = finding.message;
                    file.fuzzCase = repro;
                    const std::string path =
                        outDir + "/" + reproFileName(finding.signature);
                    writeFile(path, rm::reproToJson(file) + "\n");
                    std::cout << "  repro: " << path << "\n";
                }
            }
        }

        if (!jsonPath.empty())
            writeFile(jsonPath, triage.toJsonl());
        std::cout << "rm-fuzz: " << ran << " cases, "
                  << triage.totalCount() << " findings in "
                  << triage.uniqueCount() << " buckets\n";
        for (const auto &[signature, bucket] : triage.buckets())
            std::cout << "  " << signature << " x" << bucket.count
                      << " (first seed 0x" << std::hex << bucket.firstSeed
                      << std::dec << ")\n";
        return triage.uniqueCount() == 0 ? 0 : 1;
    } catch (const rm::FatalError &e) {
        std::cerr << "rm-fuzz: " << e.what() << "\n";
        return 1;
    }
}
