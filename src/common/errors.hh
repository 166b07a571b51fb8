#ifndef RM_COMMON_ERRORS_HH
#define RM_COMMON_ERRORS_HH

/**
 * @file
 * Error model for the RegMutex library, following the gem5 fatal/panic
 * distinction: fatal() reports a user/configuration error, panic()
 * reports an internal invariant violation (a library bug). Both throw
 * typed exceptions so that tests can assert on them and embedding
 * applications can recover.
 */

#include <sstream>
#include <stdexcept>
#include <string>

namespace rm {

/** Thrown on user/configuration errors (bad kernel, bad config). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/**
 * Thrown when a kernel cannot place even one CTA on an SM under a
 * register-allocation policy: a legitimate configuration outcome (e.g.
 * a 44-register CTA on a halved register file) rather than a bad input.
 */
class KernelDoesNotFitError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/**
 * Thrown on a malformed command line or input name: a number that does
 * not parse, a flag without its value, an unknown workload or
 * architecture label. Every CLI maps it to exit status 2.
 */
class UsageError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/** Thrown on internal invariant violations (library bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

namespace detail {

inline void
appendAll(std::ostringstream &)
{}

template <typename T, typename... Rest>
void
appendAll(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    appendAll(os, rest...);
}

} // namespace detail

/**
 * Report a user-caused error (invalid configuration, malformed kernel).
 * All arguments are stream-concatenated into the message, thrown as
 * @p Error (a FatalError subtype).
 */
template <typename Error = FatalError, typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    std::ostringstream os;
    detail::appendAll(os, args...);
    throw Error(os.str());
}

/**
 * Report an internal invariant violation that should never happen
 * regardless of user input.
 */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    std::ostringstream os;
    detail::appendAll(os, args...);
    throw PanicError(os.str());
}

/** fatal() when the condition holds. */
template <typename Error = FatalError, typename... Args>
void
fatalIf(bool condition, const Args &...args)
{
    if (condition)
        fatal<Error>(args...);
}

/** panic() unless the condition holds. */
template <typename... Args>
void
panicIf(bool condition, const Args &...args)
{
    if (condition)
        panic(args...);
}

} // namespace rm

#endif // RM_COMMON_ERRORS_HH
