#include "common/stats_json.hh"

#include <cmath>
#include <iomanip>

#include "common/config.hh"

namespace dimmlink {
namespace stats {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Print a double that round-trips and is valid JSON. */
void
num(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    os << std::setprecision(15) << v;
}

} // namespace

void
dumpJson(const Registry &reg, std::ostream &os, bool include_empty,
         const SystemConfig *config)
{
    os << "{";
    bool first_group = true;
    if (config) {
        first_group = false;
        os << "\n  \"config\": {";
        bool first = true;
        for (const auto &[key, value] : config->describeEntries()) {
            if (!first)
                os << ", ";
            first = false;
            // The value is already a JSON token (describeEntries
            // quotes strings itself).
            os << "\"" << jsonEscape(key) << "\": " << value;
        }
        os << "}";
    }
    reg.forEachGroup([&](const Group &g) {
        const bool has_scalars = [&] {
            for (const auto &[n, s] : g.scalars())
                if (s.value() != 0)
                    return true;
            return false;
        }();
        const bool has_dists = [&] {
            for (const auto &[n, d] : g.distributions())
                if (d.count() > 0)
                    return true;
            return false;
        }();
        const bool has_hists = [&] {
            for (const auto &[n, h] : g.histograms())
                if (h.total() > 0)
                    return true;
            return false;
        }();
        if (!include_empty && !has_scalars && !has_dists && !has_hists)
            return;

        if (!first_group)
            os << ",";
        first_group = false;
        os << "\n  \"" << jsonEscape(g.name()) << "\": {";

        bool first = true;
        os << "\"scalars\": {";
        for (const auto &[n, s] : g.scalars()) {
            if (!include_empty && s.value() == 0)
                continue;
            if (!first)
                os << ", ";
            first = false;
            os << "\"" << jsonEscape(n) << "\": ";
            num(os, s.value());
        }
        os << "}";

        os << ", \"distributions\": {";
        first = true;
        for (const auto &[n, d] : g.distributions()) {
            if (!include_empty && d.count() == 0)
                continue;
            if (!first)
                os << ", ";
            first = false;
            os << "\"" << jsonEscape(n) << "\": {\"count\": "
               << d.count() << ", \"mean\": ";
            num(os, d.mean());
            os << ", \"min\": ";
            num(os, d.min());
            os << ", \"max\": ";
            num(os, d.max());
            os << "}";
        }
        os << "}";

        if (include_empty || has_hists) {
            os << ", \"histograms\": {";
            first = true;
            for (const auto &[n, h] : g.histograms()) {
                if (!include_empty && h.total() == 0)
                    continue;
                if (!first)
                    os << ", ";
                first = false;
                os << "\"" << jsonEscape(n)
                   << "\": {\"bucketWidth\": ";
                num(os, h.bucketWidth());
                os << ", \"total\": " << h.total()
                   << ", \"underflow\": " << h.underflow()
                   << ", \"overflow\": " << h.overflow()
                   << ", \"p50\": ";
                num(os, h.percentile(0.50));
                os << ", \"p95\": ";
                num(os, h.percentile(0.95));
                os << ", \"p99\": ";
                num(os, h.percentile(0.99));
                os << ", \"counts\": [";
                bool first_b = true;
                for (const std::uint64_t c : h.data()) {
                    if (!first_b)
                        os << ", ";
                    first_b = false;
                    os << c;
                }
                os << "]}";
            }
            os << "}";
        }
        os << "}";
    });
    os << "\n}\n";
}

} // namespace stats
} // namespace dimmlink
