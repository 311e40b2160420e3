#include "common/stats.hh"

#include "common/log.hh"

namespace dimmlink {
namespace stats {

void
Histogram::sample(double v)
{
    ++totalCount;
    if (v < 0) {
        ++underflowCount;
        return;
    }
    // Compare before casting: converting a quotient beyond the
    // size_t range (one huge sample) or NaN to size_t is UB.
    const double q = v / bucketSize;
    if (!(q < static_cast<double>(buckets.size()))) {
        ++overflowCount;
        return;
    }
    ++buckets[static_cast<std::size_t>(q)];
}

double
Histogram::percentile(double p) const
{
    if (totalCount == 0)
        return 0;
    if (p < 0)
        p = 0;
    if (p > 1)
        p = 1;
    const double rank = p * static_cast<double>(totalCount);
    // Underflow samples rank below bucket 0; their exact values were
    // not retained, so they resolve to the histogram's lower edge.
    double cum = static_cast<double>(underflowCount);
    if (underflowCount > 0 && rank <= cum)
        return 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const auto cnt = static_cast<double>(buckets[b]);
        if (cum + cnt >= rank && cnt > 0) {
            // Interpolate within the bucket that crosses the rank.
            const double frac = (rank - cum) / cnt;
            return bucketSize * (static_cast<double>(b) + frac);
        }
        cum += cnt;
    }
    // The rank lands among overflow samples, whose exact values were
    // not retained: report the histogram's upper edge.
    return bucketSize * static_cast<double>(buckets.size());
}

void
Histogram::merge(const Histogram &o)
{
    if (o.bucketSize != bucketSize || o.buckets.size() != buckets.size())
        panic("merging histograms with different geometry "
              "(%g x %zu vs %g x %zu)", bucketSize, buckets.size(),
              o.bucketSize, o.buckets.size());
    for (std::size_t b = 0; b < buckets.size(); ++b)
        buckets[b] += o.buckets[b];
    underflowCount += o.underflowCount;
    overflowCount += o.overflowCount;
    totalCount += o.totalCount;
}

void
Histogram::reset()
{
    for (auto &b : buckets)
        b = 0;
    underflowCount = 0;
    overflowCount = 0;
    totalCount = 0;
}

Group &
Registry::group(const std::string &name)
{
    auto it = groups.find(name);
    if (it == groups.end()) {
        it = groups.emplace(name, Group{}).first;
        it->second.name_ = name;
    }
    return it->second;
}

/** Resolve "group.stat". Stat names may themselves contain dots
 * (e.g. the serving frontend's "serve.host0.requests" is the scalar
 * "host0.requests" in group "serve"), so try every split point from
 * the rightmost dot leftwards until a (group, stat) pair matches. */
const Scalar *
Registry::findScalar(const std::string &dotted) const
{
    for (auto pos = dotted.rfind('.'); pos != std::string::npos;
         pos = pos == 0 ? std::string::npos : dotted.rfind('.', pos - 1)) {
        const auto git = groups.find(dotted.substr(0, pos));
        if (git == groups.end())
            continue;
        const auto sit = git->second.scalars_.find(dotted.substr(pos + 1));
        if (sit != git->second.scalars_.end())
            return &sit->second;
    }
    return nullptr;
}

double
Registry::scalar(const std::string &dotted) const
{
    if (dotted.find('.') == std::string::npos)
        panic("malformed stat name '%s'", dotted.c_str());
    const Scalar *s = findScalar(dotted);
    if (!s)
        panic("unknown stat '%s'", dotted.c_str());
    return s->value();
}

bool
Registry::hasScalar(const std::string &dotted) const
{
    return findScalar(dotted) != nullptr;
}

double
Registry::sumScalar(const std::string &group_prefix,
                    const std::string &stat) const
{
    double sum = 0;
    for (const auto &[name, group] : groups) {
        if (name.rfind(group_prefix, 0) != 0)
            continue;
        const auto sit = group.scalars_.find(stat);
        if (sit != group.scalars_.end())
            sum += sit->second.value();
    }
    return sum;
}

Scalar &
Group::scalar(const std::string &name)
{
    return scalars_[name];
}

Distribution &
Group::distribution(const std::string &name)
{
    return dists_[name];
}

Histogram &
Group::histogram(const std::string &name, double bucket_size,
                 unsigned num_buckets)
{
    auto it = hists_.find(name);
    if (it == hists_.end())
        it = hists_.emplace(name, Histogram(bucket_size,
                                            num_buckets)).first;
    return it->second;
}

} // namespace stats
} // namespace dimmlink
