/** @file Unit tests for common utilities: bitfields, RNG, CRC32,
 * statistics and configuration. */

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>

#include "common/bitfield.hh"
#include "common/config.hh"
#include "common/crc32.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/stats_json.hh"

#include <algorithm>

namespace dimmlink {
namespace {

TEST(Bitfield, ExtractAndInsert)
{
    EXPECT_EQ(bits(0xdeadbeefull, 0, 8), 0xefu);
    EXPECT_EQ(bits(0xdeadbeefull, 8, 8), 0xbeu);
    EXPECT_EQ(bits(0xdeadbeefull, 28, 4), 0xdu);
    EXPECT_EQ(bits(0xffull, 4, 0), 0u);

    std::uint64_t v = 0;
    v = insertBits(v, 4, 8, 0xab);
    EXPECT_EQ(v, 0xab0ull);
    v = insertBits(v, 4, 8, 0xcd);
    EXPECT_EQ(v, 0xcd0ull);
    // Field wider than value: masked.
    v = insertBits(0, 0, 4, 0xff);
    EXPECT_EQ(v, 0xfull);
}

TEST(Bitfield, PowersAndLogs)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(12));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
    EXPECT_EQ(roundUp(65, 64), 128u);
    EXPECT_EQ(roundUp(64, 64), 64u);
    EXPECT_EQ(roundDown(65, 64), 64u);
    EXPECT_EQ(divCeil(10, 3), 4u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.below(17);
        ASSERT_LT(v, 17u);
        seen.insert(v);
    }
    // All 17 values should appear in 10k draws.
    EXPECT_EQ(seen.size(), 17u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double r = rng.real();
        ASSERT_GE(r, 0.0);
        ASSERT_LT(r, 1.0);
        sum += r;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Crc32, KnownVectors)
{
    // The canonical CRC-32 check value.
    const char *s = "123456789";
    EXPECT_EQ(crc32(s, 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0x00000000u);
    const char *q = "The quick brown fox jumps over the lazy dog";
    EXPECT_EQ(crc32(q, 43), 0x414fa339u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const std::string data = "hello, dimm-link world";
    const auto full = crc32(data.data(), data.size());
    auto inc = crc32Update(0, data.data(), 5);
    inc = crc32Update(inc, data.data() + 5, data.size() - 5);
    EXPECT_EQ(full, inc);
}

class CrcBitFlip : public ::testing::TestWithParam<int>
{
};

TEST_P(CrcBitFlip, DetectsSingleBitFlips)
{
    std::vector<std::uint8_t> data(32);
    for (unsigned i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 37 + 5);
    const auto orig = crc32(data.data(), data.size());
    const int bit = GetParam();
    data[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32(data.data(), data.size()), orig);
}

INSTANTIATE_TEST_SUITE_P(AllBits, CrcBitFlip,
                         ::testing::Range(0, 256));

TEST(Stats, ScalarAndDistribution)
{
    stats::Registry reg;
    auto &g = reg.group("g");
    auto &s = g.scalar("count");
    ++s;
    s += 4;
    EXPECT_DOUBLE_EQ(reg.scalar("g.count"), 5.0);
    EXPECT_TRUE(reg.hasScalar("g.count"));
    EXPECT_FALSE(reg.hasScalar("g.other"));
    EXPECT_FALSE(reg.hasScalar("nogroup.x"));

    auto &d = g.distribution("lat");
    d.sample(10);
    d.sample(20);
    d.sample(30);
    EXPECT_DOUBLE_EQ(d.mean(), 20.0);
    EXPECT_DOUBLE_EQ(d.min(), 10.0);
    EXPECT_DOUBLE_EQ(d.max(), 30.0);
    EXPECT_EQ(d.count(), 3u);
}

TEST(Stats, SumScalarOverPrefix)
{
    stats::Registry reg;
    reg.group("dimm0.mc").scalar("reads") += 3;
    reg.group("dimm1.mc").scalar("reads") += 4;
    reg.group("host").scalar("reads") += 100;
    EXPECT_DOUBLE_EQ(reg.sumScalar("dimm", "reads"), 7.0);
    EXPECT_DOUBLE_EQ(reg.sumScalar("host", "reads"), 100.0);
    EXPECT_DOUBLE_EQ(reg.sumScalar("nope", "reads"), 0.0);
}

TEST(Stats, HistogramBuckets)
{
    stats::Histogram h(10.0, 4);
    h.sample(5);
    h.sample(15);
    h.sample(15);
    h.sample(100); // overflow
    EXPECT_EQ(h.data()[0], 1u);
    EXPECT_EQ(h.data()[1], 2u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Stats, HistogramPercentiles)
{
    stats::Histogram h(10.0, 10);
    // 100 samples, one per unit of [0, 100): sample k lands in
    // bucket k/10, so percentiles interpolate to p * 100.
    for (int k = 0; k < 100; ++k)
        h.sample(k);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 95.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Stats, HistogramPercentileEdgeCases)
{
    stats::Histogram empty(10.0, 4);
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

    // A single sample: every percentile falls inside its bucket.
    stats::Histogram one(10.0, 4);
    one.sample(25);
    EXPECT_GE(one.percentile(0.5), 20.0);
    EXPECT_LE(one.percentile(0.5), 30.0);

    // All samples overflow: percentiles clamp to the upper edge.
    stats::Histogram over(10.0, 4);
    over.sample(1000);
    over.sample(2000);
    EXPECT_DOUBLE_EQ(over.percentile(0.5), 40.0);
    EXPECT_DOUBLE_EQ(over.percentile(0.99), 40.0);
}

TEST(Stats, HistogramUnderflowIsNotOverflow)
{
    // Negative samples used to land in the overflow counter (the
    // negative quotient wrapped through the size_t cast); they are
    // their own region now.
    stats::Histogram h(10.0, 4);
    h.sample(-5);
    h.sample(-1e18);
    h.sample(5);
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.data()[0], 1u);
    EXPECT_EQ(h.total(), 3u);

    // Underflow ranks below bucket 0: with 2 of 3 samples negative,
    // the median sits in the underflow region (the lower edge), while
    // p99 reaches the real bucket-0 sample.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_GT(h.percentile(0.99), 0.0);
    EXPECT_LE(h.percentile(0.99), 10.0);
}

TEST(Stats, HistogramHugeSampleIsOverflowNotUB)
{
    // Regression: v / bucketSize beyond the size_t range must be
    // classified as overflow, not fed through static_cast (UB that
    // landed in an arbitrary bucket on some targets).
    stats::Histogram h(10.0, 4);
    h.sample(1e300);
    h.sample(static_cast<double>(
        std::numeric_limits<std::uint64_t>::max()));
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.underflow(), 0u);
    for (const auto c : h.data())
        EXPECT_EQ(c, 0u);
    // NaN never compares inside the bucket range: overflow, not UB.
    h.sample(std::nan(""));
    EXPECT_EQ(h.overflow(), 3u);
}

TEST(Stats, HistogramMerge)
{
    stats::Histogram a(10.0, 4), b(10.0, 4);
    a.sample(5);
    a.sample(-1);
    b.sample(15);
    b.sample(1000);
    b.sample(5);
    a.merge(b);
    EXPECT_EQ(a.total(), 5u);
    EXPECT_EQ(a.underflow(), 1u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_EQ(a.data()[0], 2u);
    EXPECT_EQ(a.data()[1], 1u);
}

TEST(Config, PresetsMatchPaper)
{
    for (const char *name : {"4D-2C", "8D-4C", "12D-6C", "16D-8C"}) {
        const auto cfg = SystemConfig::preset(name);
        cfg.validate();
        EXPECT_EQ(cfg.dimmsPerChannel(), 2u) << name;
    }
    const auto cfg = SystemConfig::preset("16D-8C");
    EXPECT_EQ(cfg.numDimms, 16u);
    EXPECT_EQ(cfg.numChannels, 8u);
    EXPECT_EQ(cfg.numGroups(), 2u);
    EXPECT_EQ(cfg.groupSize(), 8u);
}

TEST(Config, GroupAndChannelMapping)
{
    auto cfg = SystemConfig::preset("8D-4C");
    EXPECT_EQ(cfg.groupOf(0), 0u);
    EXPECT_EQ(cfg.groupOf(3), 0u);
    EXPECT_EQ(cfg.groupOf(4), 1u);
    EXPECT_EQ(cfg.groupOf(7), 1u);
    EXPECT_EQ(cfg.channelOf(0), 0u);
    EXPECT_EQ(cfg.channelOf(1), 0u);
    EXPECT_EQ(cfg.channelOf(2), 1u);
    EXPECT_EQ(cfg.channelOf(7), 3u);
}

TEST(Config, SmallSystemIsOneGroup)
{
    auto cfg = SystemConfig::preset("4D-2C");
    EXPECT_EQ(cfg.numGroups(), 1u);
    EXPECT_EQ(cfg.groupSize(), 4u);
}

TEST(Config, PrintMentionsKeyFields)
{
    auto cfg = SystemConfig::preset("4D-2C");
    std::ostringstream os;
    cfg.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("DIMM-Link"), std::string::npos);
    EXPECT_NE(s.find("25 GB/s"), std::string::npos);
}

TEST(StatsJson, EscapesAndSerializes)
{
    EXPECT_EQ(stats::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(stats::jsonEscape("x\ny"), "x\\ny");

    stats::Registry reg;
    reg.group("g.one").scalar("count") += 5;
    reg.group("g.one").distribution("lat").sample(2.0);
    reg.group("g.one").distribution("lat").sample(4.0);
    reg.group("empty"); // omitted by default

    std::ostringstream os;
    stats::dumpJson(reg, os);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"g.one\""), std::string::npos);
    EXPECT_NE(j.find("\"count\": 5"), std::string::npos);
    EXPECT_NE(j.find("\"mean\": 3"), std::string::npos);
    EXPECT_EQ(j.find("\"empty\""), std::string::npos);
    // Balanced braces (cheap well-formedness check).
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
}

TEST(StatsJson, HistogramRoundTrip)
{
    stats::Registry reg;
    auto &h = reg.group("g").histogram("lat", 10.0, 4);
    for (int k = 0; k < 40; ++k)
        h.sample(k);
    h.sample(1000); // overflow

    std::ostringstream os;
    stats::dumpJson(reg, os);
    const std::string j = os.str();

    // Raw shape fields survive...
    EXPECT_NE(j.find("\"lat\""), std::string::npos);
    EXPECT_NE(j.find("\"bucketWidth\": 10"), std::string::npos);
    EXPECT_NE(j.find("\"total\": 41"), std::string::npos);
    EXPECT_NE(j.find("\"overflow\": 1"), std::string::npos);
    EXPECT_NE(j.find("\"counts\": [10, 10, 10, 10]"),
              std::string::npos);
    // ...and the percentile summaries sit next to them.
    std::ostringstream p50, p95, p99;
    p50 << "\"p50\": " << std::setprecision(15) << h.percentile(0.50);
    p95 << "\"p95\": " << std::setprecision(15) << h.percentile(0.95);
    p99 << "\"p99\": " << std::setprecision(15) << h.percentile(0.99);
    EXPECT_NE(j.find(p50.str()), std::string::npos);
    EXPECT_NE(j.find(p95.str()), std::string::npos);
    EXPECT_NE(j.find(p99.str()), std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
}

TEST(Log, StrFormat)
{
    EXPECT_EQ(strFormat("x=%d y=%s", 5, "z"), "x=5 y=z");
}

} // namespace
} // namespace dimmlink
