/** @file Tests for the configuration front end: enum parsers, the flat
 * JSON file format, -p overrides, describe() round-trips, and the
 * consolidated cross-field validation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/config.hh"
#include "common/json.hh"

namespace dimmlink {
namespace {

// ---- enum round-trips and aliases -------------------------------------

TEST(ConfigEnums, EveryValueRoundTripsThroughToString)
{
    for (auto m : {IdcMethod::CpuForwarding, IdcMethod::DedicatedBus,
                   IdcMethod::ChannelBroadcast, IdcMethod::DimmLink})
        EXPECT_EQ(idcMethodFromString(toString(m)), m);
    for (auto p : {PollingMode::Baseline, PollingMode::BaselineInterrupt,
                   PollingMode::Proxy, PollingMode::ProxyInterrupt})
        EXPECT_EQ(pollingModeFromString(toString(p)), p);
    for (auto t : {Topology::HalfRing, Topology::Ring, Topology::Mesh,
                   Topology::Torus})
        EXPECT_EQ(topologyFromString(toString(t)), t);
    for (auto s : {SyncScheme::Centralized, SyncScheme::Hierarchical})
        EXPECT_EQ(syncSchemeFromString(toString(s)), s);
}

TEST(ConfigEnums, CliAliasesParse)
{
    EXPECT_EQ(idcMethodFromString("dimmlink"), IdcMethod::DimmLink);
    EXPECT_EQ(idcMethodFromString("dl"), IdcMethod::DimmLink);
    EXPECT_EQ(idcMethodFromString("mcn"), IdcMethod::CpuForwarding);
    EXPECT_EQ(idcMethodFromString("abc"), IdcMethod::ChannelBroadcast);
    EXPECT_EQ(idcMethodFromString("AIM"), IdcMethod::DedicatedBus);
    EXPECT_EQ(pollingModeFromString("proxy-itrpt"),
              PollingMode::ProxyInterrupt);
    EXPECT_EQ(pollingModeFromString("P-P"), PollingMode::Proxy);
    EXPECT_EQ(pollingModeFromString("baseline"), PollingMode::Baseline);
    EXPECT_EQ(topologyFromString("chain"), Topology::HalfRing);
    EXPECT_EQ(topologyFromString("TORUS"), Topology::Torus);
    EXPECT_EQ(syncSchemeFromString("hier"), SyncScheme::Hierarchical);
    EXPECT_EQ(syncSchemeFromString("central"), SyncScheme::Centralized);
}

TEST(ConfigEnumsDeathTest, UnknownEnumNameListsValidOnes)
{
    EXPECT_EXIT(idcMethodFromString("token-ring"),
                ::testing::ExitedWithCode(1),
                "unknown IDC method 'token-ring'.*DIMM-Link");
    EXPECT_EXIT(topologyFromString("hypercube"),
                ::testing::ExitedWithCode(1),
                "unknown topology 'hypercube'.*HalfRing");
}

// ---- key/value access and overrides -----------------------------------

TEST(ConfigSet, TypedKeysParseAndStick)
{
    SystemConfig cfg;
    cfg.set("system.numDimms", "12");
    cfg.set("system.idcMethod", "aim");
    cfg.set("host.channelGBps", "25.6");
    cfg.set("system.distanceAwareMapping", "yes");
    cfg.set("dimm.capacityBytes", "0x100000000");
    EXPECT_EQ(cfg.numDimms, 12u);
    EXPECT_EQ(cfg.idcMethod, IdcMethod::DedicatedBus);
    EXPECT_DOUBLE_EQ(cfg.host.channelGBps, 25.6);
    EXPECT_TRUE(cfg.distanceAwareMapping);
    EXPECT_EQ(cfg.dimm.capacityBytes, std::uint64_t{1} << 32);
}

TEST(ConfigSet, ApplyOverrideSplitsOnEquals)
{
    SystemConfig cfg;
    cfg.applyOverride("link.linkGBps=50");
    cfg.applyOverride("system.dramScheduler=FCFS");
    EXPECT_DOUBLE_EQ(cfg.link.linkGBps, 50.0);
    EXPECT_EQ(cfg.dramScheduler, "FCFS");
}

TEST(ConfigSetDeathTest, UnknownDramStandardFatalsInValidate)
{
    SystemConfig cfg = SystemConfig::preset("4D-2C");
    // An unknown preset is caught by validate(), which lists what is
    // available.
    cfg.set("system.dramPreset", "sdram");
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "DRAM timing preset 'sdram'.*DDR4_2400");
}

TEST(ConfigSetDeathTest, MalformedOverrideFatals)
{
    SystemConfig cfg;
    EXPECT_EXIT(cfg.applyOverride("link.linkGBps"),
                ::testing::ExitedWithCode(1),
                "expected section.key=value");
}

TEST(ConfigSetDeathTest, UnknownKeySuggestsSectionSiblings)
{
    SystemConfig cfg;
    // A typo inside a known section lists that section's keys.
    EXPECT_EXIT(cfg.set("link.linkGbps", "50"),
                ::testing::ExitedWithCode(1),
                "unknown config key 'link.linkGbps'.*link\\.linkGBps");
    EXPECT_EXIT(cfg.set("nmp.cores", "4"),
                ::testing::ExitedWithCode(1),
                "unknown config key 'nmp.cores'");
}

TEST(ConfigSetDeathTest, RemovedSimSectionIsUnknown)
{
    // Old configs and scripts still carry the retired sim.* execution
    // knobs; they must fail loudly, and the section list must not
    // advertise a section that no longer exists.
    const char *sections =
        "unknown config key 'sim\\.threads' \\(sections: system, host, "
        "dimm, link, bus, faults, serve, energy, obs, watchdog, rack\\)";
    SystemConfig cfg;
    EXPECT_EXIT(cfg.applyOverride("sim.threads=4"),
                ::testing::ExitedWithCode(1), sections);
    EXPECT_EXIT(SystemConfig::fromString(
                    "{\"sim\": {\"threads\": 4}}", "old.json"),
                ::testing::ExitedWithCode(1), sections);
}

TEST(ConfigSetDeathTest, BadTypedValueNamesKey)
{
    SystemConfig cfg;
    EXPECT_EXIT(cfg.set("system.numDimms", "eight"),
                ::testing::ExitedWithCode(1), "system.numDimms");
    EXPECT_EXIT(cfg.set("system.numDimms", "-4"),
                ::testing::ExitedWithCode(1), "system.numDimms");
    EXPECT_EXIT(cfg.set("system.distanceAwareMapping", "maybe"),
                ::testing::ExitedWithCode(1),
                "system.distanceAwareMapping");
    // Non-finite numbers and integers past 64 bits are rejected: a
    // NaN link rate would hang the run, a NaN BER would inject
    // nothing, and strtoull saturates an oversized seed.
    EXPECT_EXIT(cfg.set("link.linkGBps", "nan"),
                ::testing::ExitedWithCode(1), "link.linkGBps");
    EXPECT_EXIT(cfg.set("faults.ber", "nan"),
                ::testing::ExitedWithCode(1), "faults.ber");
    EXPECT_EXIT(cfg.set("system.seed", "99999999999999999999999"),
                ::testing::ExitedWithCode(1), "system.seed");
}

TEST(ConfigKeys, KnownKeysCoverEverySection)
{
    const std::vector<std::string> keys = SystemConfig::knownKeys();
    EXPECT_GE(keys.size(), 50u);
    for (const char *want :
         {"system.numDimms", "system.dramScheduler", "host.numCores",
          "dimm.capacityBytes", "link.topology", "bus.busGBps",
          "energy.linkPjPerBit"})
        EXPECT_NE(std::find(keys.begin(), keys.end(), want),
                  keys.end())
            << want;
}

// ---- describe() / fromString() round trip -----------------------------

TEST(ConfigRoundTrip, DescribeReparsesIdentically)
{
    for (const char *preset : {"4D-2C", "8D-4C", "16D-8C"}) {
        SystemConfig cfg = SystemConfig::preset(preset);
        cfg.idcMethod = IdcMethod::DedicatedBus;
        cfg.dramScheduler = "FCFS";
        cfg.link.linkGBps = 32.5;
        const std::string text = cfg.describe();
        SystemConfig back = SystemConfig::fromString(text, "describe");
        EXPECT_EQ(back.describe(), text) << preset;
    }
}

TEST(ConfigRoundTrip, FromFileReadsCommentedNestedJson)
{
    const std::string path = ::testing::TempDir() + "config_test.json";
    {
        std::ofstream f(path);
        f << "// comment\n"
             "{\n"
             "  \"system\": {\n"
             "    \"numDimms\": 4,  # trailing comment\n"
             "    \"numChannels\": 2,\n"
             "    \"idcMethod\": \"mcn\"\n"
             "  },\n"
             "  \"link.linkGBps\": 12.5\n"
             "}\n";
    }
    SystemConfig cfg = SystemConfig::fromFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(cfg.numDimms, 4u);
    EXPECT_EQ(cfg.numChannels, 2u);
    EXPECT_EQ(cfg.idcMethod, IdcMethod::CpuForwarding);
    EXPECT_DOUBLE_EQ(cfg.link.linkGBps, 12.5);
    // Untouched keys keep their defaults.
    EXPECT_EQ(cfg.dramScheduler, "FRFCFS");
    // A -p override still replaces a value the file set.
    cfg.applyOverride("system.numDimms=8");
    EXPECT_EQ(cfg.numDimms, 8u);
}

TEST(ConfigRoundTripDeathTest, MissingFileFatals)
{
    EXPECT_EXIT(SystemConfig::fromFile("/nonexistent/cfg.json"),
                ::testing::ExitedWithCode(1), "cannot open");
}

// ---- flat JSON parser rejections --------------------------------------

TEST(FlatJson, ParsesSectionsAndScalars)
{
    const auto entries = json::parseFlat(
        "{\"a\": {\"b\": 1, \"c\": \"x\"}, \"d\": true}", "test");
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].key, "a.b");
    EXPECT_EQ(entries[0].value, "1");
    EXPECT_FALSE(entries[0].wasString);
    EXPECT_EQ(entries[1].key, "a.c");
    EXPECT_EQ(entries[1].value, "x");
    EXPECT_TRUE(entries[1].wasString);
    EXPECT_EQ(entries[2].key, "d");
    EXPECT_EQ(entries[2].value, "true");
}

TEST(FlatJsonDeathTest, RejectsArraysNullAndTrailingContent)
{
    EXPECT_EXIT(json::parseFlat("{\"a\": [1, 2]}", "t"),
                ::testing::ExitedWithCode(1), "array");
    EXPECT_EXIT(json::parseFlat("{\"a\": null}", "t"),
                ::testing::ExitedWithCode(1), "null");
    EXPECT_EXIT(json::parseFlat("{\"a\": 1} x", "t"),
                ::testing::ExitedWithCode(1), "trailing");
    EXPECT_EXIT(json::parseFlat("{\"a\": 1", "t"),
                ::testing::ExitedWithCode(1), "t:");
}

TEST(FlatJsonDeathTest, RejectsDuplicateKeysNamingKeyAndFile)
{
    // Last-one-wins would silently run the second value.
    EXPECT_EXIT(json::parseFlat(
                    "{\"system.numDimms\": 4, \"system.numDimms\": 8}",
                    "dup.json"),
                ::testing::ExitedWithCode(1),
                "dup\\.json:1: duplicate key 'system\\.numDimms'");
    // A dotted key repeated inside its nested section is the same key.
    EXPECT_EXIT(SystemConfig::fromString(
                    "{\"system.numDimms\": 4,\n"
                    " \"system\": {\"numDimms\": 8}}",
                    "nested.json"),
                ::testing::ExitedWithCode(1),
                "nested\\.json:2: duplicate key 'system\\.numDimms'");
    // Files name themselves in the message.
    const std::string path = ::testing::TempDir() + "dup_cfg.json";
    std::ofstream(path) << "{\"host\": {\"numCores\": 8},\n"
                           " \"host\": {\"numCores\": 4}}\n";
    EXPECT_EXIT(SystemConfig::fromFile(path), ::testing::ExitedWithCode(1),
                "dup_cfg\\.json:2: duplicate key 'host\\.numCores'");
    std::remove(path.c_str());
}

// ---- consolidated validate() ------------------------------------------

TEST(ConfigValidateDeathTest, CrossFieldConstraints)
{
    {
        SystemConfig cfg = SystemConfig::preset("8D-4C");
        cfg.numDimms = 6; // not divisible by 4 channels
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "numDimms");
    }
    {
        SystemConfig cfg = SystemConfig::preset("8D-4C");
        cfg.dimm.capacityBytes = 3ull << 30; // not a power of two
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "capacityBytes");
    }
    {
        SystemConfig cfg = SystemConfig::preset("8D-4C");
        cfg.host.l1Bytes = 10000; // not divisible into pow2 sets
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "host L1");
    }
    {
        SystemConfig cfg = SystemConfig::preset("8D-4C");
        cfg.dramScheduler = "LIFO";
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "DRAM scheduling policy 'LIFO'.*FRFCFS");
    }
    {
        SystemConfig cfg = SystemConfig::preset("8D-4C");
        cfg.dramPreset = "DDR9_9999"; // no such registered preset
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "DRAM timing preset 'DDR9_9999'.*DDR4_2400");
    }
    {
        SystemConfig cfg = SystemConfig::preset("8D-4C");
        cfg.host.pollThreads = 0;
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "pollThreads");
    }
    {
        // Less than one 17-flit packet: the run would never finish.
        SystemConfig cfg = SystemConfig::preset("4D-2C");
        cfg.link.bufferFlits = 16;
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "link.bufferFlits \\(16\\) must hold one 17-flit");
    }
    {
        // A ring also needs room for the injection bubble; the
        // acyclic HalfRing runs on one packet.
        SystemConfig cfg = SystemConfig::preset("4D-2C");
        cfg.link.bufferFlits = 33;
        cfg.validate(); // must not exit
        cfg.link.topology = Topology::Ring;
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "link.bufferFlits \\(33\\) must hold two 17-flit");
        cfg.link.bufferFlits = 34;
        cfg.validate(); // must not exit
    }
}

TEST(ConfigValidate, PresetsAndDefaultConfigFileAreValid)
{
    for (const char *p : {"4D-2C", "8D-4C", "12D-6C", "16D-8C"})
        SystemConfig::preset(p).validate(); // must not exit
    const std::string repo_cfg =
        std::string(DIMMLINK_SOURCE_DIR) + "/configs/default.json";
    SystemConfig cfg = SystemConfig::fromFile(repo_cfg);
    cfg.validate();
    // The checked-in example reproduces the paper's default machine.
    EXPECT_EQ(cfg.describe(), SystemConfig::preset("8D-4C").describe());
}

} // namespace
} // namespace dimmlink
