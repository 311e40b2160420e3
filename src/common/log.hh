/**
 * @file
 * Status and error reporting in the gem5 idiom: panic() for simulator
 * bugs, fatal() for user errors, warn() for survivable conditions.
 */

#ifndef DIMMLINK_COMMON_LOG_HH
#define DIMMLINK_COMMON_LOG_HH

#include <cstdarg>
#include <cstdint>
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

/**
 * Rate-limited warning for conditions that can recur thousands of
 * times per run (a dead link exhausting transfer after transfer).
 * Occurrences are counted per @p key; the first one prints (with a
 * note that repeats are suppressed) and every @p every-th occurrence
 * prints a reminder with the running count. @p every == 0 prints the
 * first occurrence only.
 */
void warnRateLimited(const char *key, unsigned every, const char *fmt,
                     ...) __attribute__((format(printf, 3, 4)));

/** warnRateLimited() printing only the first occurrence per key. */
#define DIMMLINK_WARN_ONCE(key, ...) \
    ::dimmlink::warnRateLimited(key, 0, __VA_ARGS__)

/** Occurrences recorded for @p key so far (tests, diagnostics). */
std::uint64_t warnCount(const char *key);

/** Forget all rate-limited warning state (tests). */
void resetWarnCounts();

/** printf-style formatting into a std::string. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace dimmlink

#endif // DIMMLINK_COMMON_LOG_HH
