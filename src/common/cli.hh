#ifndef RM_COMMON_CLI_HH
#define RM_COMMON_CLI_HH

/**
 * @file
 * Strict command-line value parsers shared by every CLI and sweep
 * bench. The whole string must parse (no leading blanks, no trailing
 * text, no '+'); unsigned values reject any sign. A bad value throws
 * UsageError with the message "<flag> needs <what>, got '<text>'",
 * which the programs map to exit status 2.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rm::cli {

/**
 * The value of flag argv[i]: advances @p i to it. Throws UsageError
 * "<flag> needs a value" when argv ends first.
 */
std::string value(int argc, char *const *argv, int &i);

/** A decimal int, sign allowed ("needs a number"). */
int parseInt(std::string_view flag, std::string_view text);

/** A decimal int without a sign ("needs a non-negative integer"). */
int parseCount(std::string_view flag, std::string_view text);

/**
 * A 64-bit unsigned decimal ("needs a non-negative integer"); with
 * @p hex, a "0x"/"0X" prefix reads the rest as hexadecimal.
 */
std::uint64_t parseU64(std::string_view flag, std::string_view text,
                       bool hex = false);

/** A finite decimal number ("needs a number"). */
double parseNumber(std::string_view flag, std::string_view text);

/** A finite number above 0 ("needs a positive number of seconds"). */
double parseSeconds(std::string_view flag, std::string_view text);

/**
 * Exactly @p n colon-separated unsigned values, "a:b:c" ("needs N
 * colon-separated numbers").
 */
std::vector<std::uint64_t> parseU64List(std::string_view flag,
                                        std::string_view text,
                                        std::size_t n);

} // namespace rm::cli

#endif // RM_COMMON_CLI_HH
