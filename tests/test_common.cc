/**
 * @file
 * Unit tests for errors, logging, RNG determinism, table rendering and
 * the strict command-line value parsers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"

namespace rm {
namespace {

TEST(Errors, FatalThrowsFatalError)
{
    try {
        fatal("bad config: ", 42);
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad config: 42");
    }
}

TEST(Errors, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant"), PanicError);
}

TEST(Errors, ConditionalHelpers)
{
    EXPECT_NO_THROW(fatalIf(false, "x"));
    EXPECT_THROW(fatalIf(true, "x"), FatalError);
    EXPECT_NO_THROW(panicIf(false, "x"));
    EXPECT_THROW(panicIf(true, "x"), PanicError);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(-5, 9);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 9);
    }
    EXPECT_EQ(rng.uniformInt(3, 3), 3);
    EXPECT_THROW(rng.uniformInt(2, 1), PanicError);
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 4000; ++i) {
        const double v = rng.uniformDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 4000.0, 0.5, 0.05);
}

TEST(Table, RendersAlignedText)
{
    Table table({"name", "value"});
    Row row;
    row << "alpha" << 12;
    table.addRow(row.take());
    const std::string text = table.toText();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("12"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table table({"a", "b"});
    Row row;
    row << 1 << 2;
    table.addRow(row.take());
    EXPECT_EQ(table.toCsv(), "a,b\n1,2\n");
}

TEST(Table, RowSizeMismatchFatals)
{
    Table table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), FatalError);
}

TEST(Table, CellAccessor)
{
    Table table({"a"});
    table.addRow({"x"});
    EXPECT_EQ(table.cell(0, 0), "x");
    EXPECT_THROW(table.cell(1, 0), PanicError);
}

TEST(Formatting, PercentAndFixed)
{
    EXPECT_EQ(percent(0.135), "13.5%");
    EXPECT_EQ(percent(-0.05, 0), "-5%");
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(Logging, LevelGate)
{
    setLogLevel(LogLevel::Silent);
    inform("should not crash");
    warn("nor this");
    setLogLevel(LogLevel::Warn);
}

/** The UsageError message @p parse throws, or "" when it returns. */
template <typename Parse>
std::string
usageMessage(Parse parse)
{
    try {
        parse();
    } catch (const UsageError &e) {
        return e.what();
    }
    return "";
}

TEST(CliParse, WholeStringMustParse)
{
    EXPECT_EQ(cli::parseInt("--es", "-3"), -3);
    EXPECT_EQ(cli::parseCount("--sms", "15"), 15);
    EXPECT_EQ(cli::parseU64("--max-cycles", "18446744073709551615"),
              18446744073709551615ULL);
    EXPECT_DOUBLE_EQ(cli::parseNumber("--rate", "2.5"), 2.5);
    EXPECT_DOUBLE_EQ(cli::parseSeconds("--wall-deadline", "0.25"), 0.25);
    for (const char *text : {"", "abc", "1x", " 1", "1 ", "+1", "0.5"})
        EXPECT_THROW(cli::parseInt("--es", text), UsageError) << text;
    for (const char *text : {"", "1x", "nan", "inf", "1e999"})
        EXPECT_THROW(cli::parseNumber("--rate", text), UsageError) << text;
    EXPECT_EQ(usageMessage([] { cli::parseInt("--port", "abc"); }),
              "--port needs a number, got 'abc'");
}

TEST(CliParse, UnsignedFlagsRejectASign)
{
    EXPECT_EQ(usageMessage([] { cli::parseU64("--es", "-1"); }),
              "--es needs a non-negative integer, got '-1'");
    EXPECT_THROW(cli::parseCount("--threads", "-1"), UsageError);
    EXPECT_THROW(cli::parseCount("--threads", "2147483648"), UsageError);
    EXPECT_THROW(cli::parseU64("--seed", "18446744073709551616"),
                 UsageError);
    EXPECT_EQ(usageMessage([] { cli::parseSeconds("--wall-deadline", "0"); }),
              "--wall-deadline needs a positive number of seconds, got '0'");
}

TEST(CliParse, HexOnlyWhereAsked)
{
    EXPECT_EQ(cli::parseU64("--seed", "0x2a", /*hex=*/true), 42u);
    EXPECT_EQ(cli::parseU64("--seed", "0X2A", /*hex=*/true), 42u);
    EXPECT_EQ(cli::parseU64("--seed", "42", /*hex=*/true), 42u);
    EXPECT_THROW(cli::parseU64("--seed", "0x2a"), UsageError);
    EXPECT_THROW(cli::parseU64("--seed", "0x", /*hex=*/true), UsageError);
    EXPECT_THROW(cli::parseU64("--seed", "0x-1", /*hex=*/true), UsageError);
}

TEST(CliParse, ColonListsNeedExactlyNNumbers)
{
    EXPECT_EQ(cli::parseU64List("--fault-mem-spike", "1:2:3", 3),
              (std::vector<std::uint64_t>{1, 2, 3}));
    for (const char *text : {"1:2", "1:2:3:4", "1::3", "1:2:x", ":1:2"})
        EXPECT_THROW(cli::parseU64List("--fault-mem-spike", text, 3),
                     UsageError)
            << text;
    EXPECT_EQ(usageMessage([] { cli::parseU64List("--f", "1", 2); }),
              "--f needs 2 colon-separated numbers, got '1'");
}

TEST(CliParse, MissingValueNamesTheFlag)
{
    const char *argv[] = {"prog", "--port", "7", "--workers"};
    char *const *args = const_cast<char *const *>(argv);
    int i = 1;
    EXPECT_EQ(cli::value(4, args, i), "7");
    EXPECT_EQ(i, 2);
    i = 3;
    EXPECT_EQ(usageMessage([&] { cli::value(4, args, i); }),
              "--workers needs a value");
}

} // namespace
} // namespace rm
