#include "common/cli.hh"

#include <charconv>
#include <climits>
#include <cmath>
#include <optional>

#include "common/errors.hh"

namespace rm::cli {

namespace {

/** @p text as a T when the whole string parses, else nullopt. For an
 *  unsigned T from_chars already rejects a '-' sign. */
template <typename T>
std::optional<T>
whole(std::string_view text, int base = 10)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
    if (text.empty() || ec != std::errc{} || ptr != end)
        return std::nullopt;
    return value;
}

std::optional<double>
wholeDouble(std::string_view text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc{} || ptr != end ||
        !std::isfinite(value))
        return std::nullopt;
    return value;
}

[[noreturn]] void
bad(std::string_view flag, std::string_view what, std::string_view text)
{
    fatal<UsageError>(flag, " needs ", what, ", got '", text, "'");
}

} // namespace

std::string
value(int argc, char *const *argv, int &i)
{
    fatalIf<UsageError>(i + 1 >= argc, argv[i], " needs a value");
    return argv[++i];
}

int
parseInt(std::string_view flag, std::string_view text)
{
    if (const auto v = whole<int>(text))
        return *v;
    bad(flag, "a number", text);
}

int
parseCount(std::string_view flag, std::string_view text)
{
    if (const auto v = whole<unsigned>(text); v && *v <= INT_MAX)
        return static_cast<int>(*v);
    bad(flag, "a non-negative integer", text);
}

std::uint64_t
parseU64(std::string_view flag, std::string_view text, bool hex)
{
    const bool prefixed = hex && text.size() > 2 && text[0] == '0' &&
                          (text[1] == 'x' || text[1] == 'X');
    if (const auto v = prefixed ? whole<std::uint64_t>(text.substr(2), 16)
                                : whole<std::uint64_t>(text))
        return *v;
    bad(flag, "a non-negative integer", text);
}

double
parseNumber(std::string_view flag, std::string_view text)
{
    if (const auto v = wholeDouble(text))
        return *v;
    bad(flag, "a number", text);
}

double
parseSeconds(std::string_view flag, std::string_view text)
{
    if (const auto v = wholeDouble(text); v && *v > 0.0)
        return *v;
    bad(flag, "a positive number of seconds", text);
}

std::vector<std::uint64_t>
parseU64List(std::string_view flag, std::string_view text, std::size_t n)
{
    std::vector<std::uint64_t> parts;
    std::string_view rest = text;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t colon =
            k + 1 < n ? rest.find(':') : std::string_view::npos;
        const std::optional<std::uint64_t> v =
            whole<std::uint64_t>(rest.substr(0, colon));
        if (!v || (k + 1 < n && colon == std::string_view::npos))
            bad(flag, std::to_string(n) + " colon-separated numbers", text);
        parts.push_back(*v);
        if (colon != std::string_view::npos)
            rest.remove_prefix(colon + 1);
    }
    return parts;
}

} // namespace rm::cli
