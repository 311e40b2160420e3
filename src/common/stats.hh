/**
 * @file
 * A small statistics package in the spirit of gem5's: components own a
 * StatGroup, register named scalars / averages / histograms in it, and a
 * StatRegistry looks values up by dotted name; stats_json.hh exports
 * everything.
 */

#ifndef DIMMLINK_COMMON_STATS_HH
#define DIMMLINK_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dimmlink {
namespace stats {

/** A named monotonically-updated scalar statistic. */
class Scalar
{
  public:
    Scalar &
    operator+=(double v)
    {
        value_ += v;
        return *this;
    }
    Scalar &operator++() { return *this += 1; }
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0;
};

/** Tracks mean / min / max / count of a sampled quantity. */
class Distribution
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        ++count_;
    }

    /** Fold another distribution's samples into this one. */
    void
    merge(const Distribution &o)
    {
        if (o.count_ == 0)
            return;
        if (count_ == 0 || o.min_ < min_)
            min_ = o.min_;
        if (count_ == 0 || o.max_ > max_)
            max_ = o.max_;
        sum_ += o.sum_;
        count_ += o.count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0; }
    double min() const { return min_; }
    double max() const { return max_; }

  private:
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
    std::uint64_t count_ = 0;
};

/** Fixed-bucket histogram over [0, bucketSize * numBuckets). */
class Histogram
{
  public:
    explicit Histogram(double bucket_size = 1.0, unsigned num_buckets = 32)
        : bucketSize(bucket_size), buckets(num_buckets, 0)
    {}

    void sample(double v);
    void reset();

    /**
     * The value below which fraction @p p (in [0, 1]) of the samples
     * fall, linearly interpolated within the owning bucket. Samples
     * below zero (the underflow region) rank below bucket 0 and
     * resolve to the histogram's lower edge; samples in the overflow
     * region resolve to the upper edge (the exact values are not
     * retained in either case). Returns 0 on an empty histogram.
     */
    double percentile(double p) const;

    /**
     * Fold another histogram's counts into this one. Both must share
     * the same bucket geometry. Count addition commutes, so merging
     * per-core histograms in any fixed order is deterministic.
     */
    void merge(const Histogram &o);

    double bucketWidth() const { return bucketSize; }
    const std::vector<std::uint64_t> &data() const { return buckets; }
    std::uint64_t underflow() const { return underflowCount; }
    std::uint64_t overflow() const { return overflowCount; }
    std::uint64_t total() const { return totalCount; }

  private:
    double bucketSize;
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflowCount = 0;
    std::uint64_t overflowCount = 0;
    std::uint64_t totalCount = 0;
};

class Group;

/**
 * Owns a tree of stat groups. The root registry lives in the System and
 * is read by the metric collectors and by dumpJson().
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Create (or fetch) a group with a dotted path name. */
    Group &group(const std::string &name);

    /** Look up a scalar by "group.stat" name; panics when missing. */
    double scalar(const std::string &dotted) const;

    /** True when "group.stat" names a registered scalar. */
    bool hasScalar(const std::string &dotted) const;

    /** Shared resolver behind scalar()/hasScalar(): stat names may
     * contain dots, so every split point is tried right-to-left. */
    const Scalar *findScalar(const std::string &dotted) const;

    /** Sum a scalar stat over all groups whose name matches a prefix. */
    double sumScalar(const std::string &group_prefix,
                     const std::string &stat) const;

    /** Visit every group in deterministic (sorted-name) order.
     * (Defined after Group below, which must be complete.) */
    template <typename Fn>
    void forEachGroup(Fn &&fn) const;

  private:
    friend class Group;
    // std::map for deterministic iteration order in dumpJson().
    std::map<std::string, Group> groups;
};

/**
 * A named collection of statistics belonging to one component instance
 * (e.g. "dimm3.localMc"). Components hold references to the registered
 * stats, the group owns storage.
 */
class Group
{
  public:
    Scalar &scalar(const std::string &name);
    Distribution &distribution(const std::string &name);
    Histogram &histogram(const std::string &name, double bucket_size,
                         unsigned num_buckets);

    const std::string &name() const { return name_; }

    const std::map<std::string, Scalar> &scalars() const
    {
        return scalars_;
    }
    const std::map<std::string, Distribution> &distributions() const
    {
        return dists_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return hists_;
    }

  private:
    friend class Registry;
    std::string name_;
    std::map<std::string, Scalar> scalars_;
    std::map<std::string, Distribution> dists_;
    std::map<std::string, Histogram> hists_;
};

template <typename Fn>
void
Registry::forEachGroup(Fn &&fn) const
{
    for (const auto &[name, group] : groups) {
        (void)name;
        fn(group);
    }
}

} // namespace stats
} // namespace dimmlink

#endif // DIMMLINK_COMMON_STATS_HH
