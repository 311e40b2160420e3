#include "common/log.hh"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

namespace dimmlink {

namespace {

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

} // namespace

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

namespace {

std::map<std::string, std::uint64_t> &
warnCounts()
{
    static std::map<std::string, std::uint64_t> counts;
    return counts;
}

} // namespace

void
warnRateLimited(const char *key, unsigned every, const char *fmt, ...)
{
    const std::uint64_t n = ++warnCounts()[key];
    const bool print =
        n == 1 || (every != 0 && n % every == 0);
    if (!print)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformat(fmt, ap);
    va_end(ap);
    if (n == 1)
        std::fprintf(stderr, "warn: %s (repeats of '%s' are "
                     "rate-limited)\n", msg.c_str(), key);
    else
        std::fprintf(stderr, "warn: %s (occurrence %llu of '%s')\n",
                     msg.c_str(),
                     static_cast<unsigned long long>(n), key);
}

std::uint64_t
warnCount(const char *key)
{
    const auto &counts = warnCounts();
    const auto it = counts.find(key);
    return it == counts.end() ? 0 : it->second;
}

void
resetWarnCounts()
{
    warnCounts().clear();
}

std::string
strFormat(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    return s;
}

} // namespace dimmlink
