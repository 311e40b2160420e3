/**
 * @file
 * Status and error reporting in the gem5 idiom: panic() for simulator
 * bugs, fatal() for user errors, warn() for survivable conditions.
 */

#ifndef DIMMLINK_COMMON_LOG_HH
#define DIMMLINK_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace dimmlink {

/**
 * Report an internal invariant violation (a simulator bug) and abort.
 * Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 * Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report suspicious-but-survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace dimmlink

#endif // DIMMLINK_COMMON_LOG_HH
