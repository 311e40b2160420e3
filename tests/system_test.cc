/** @file Full-system integration tests: every fabric end to end,
 * determinism, stat consistency, the task-mapping path, energy
 * accounting, and the host-CPU baseline. */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "system/host_runner.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace {

workloads::WorkloadParams
smallParams(const SystemConfig &cfg, std::uint64_t scale = 8)
{
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = scale;
    p.rounds = 4;
    return p;
}

RunResult
runOnce(SystemConfig cfg, const std::string &wl_name,
        std::uint64_t scale = 8)
{
    System sys(cfg);
    auto wl = workloads::makeWorkload(wl_name, smallParams(cfg, scale),
                                      sys.addressMap());
    Runner runner(sys, *wl);
    return runner.run();
}

class FabricIntegration : public ::testing::TestWithParam<IdcMethod>
{
};

TEST_P(FabricIntegration, BfsVerifiesOnEveryFabric)
{
    auto cfg = SystemConfig::preset("8D-4C");
    cfg.idcMethod = GetParam();
    if (GetParam() != IdcMethod::DimmLink)
        cfg.pollingMode = PollingMode::Baseline;
    const RunResult r = runOnce(cfg, "bfs");
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.idcStallPs, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, FabricIntegration,
    ::testing::Values(IdcMethod::CpuForwarding,
                      IdcMethod::DedicatedBus,
                      IdcMethod::ChannelBroadcast,
                      IdcMethod::DimmLink),
    [](const auto &info) {
        switch (info.param) {
          case IdcMethod::CpuForwarding: return "Mcn";
          case IdcMethod::DedicatedBus: return "Aim";
          case IdcMethod::ChannelBroadcast: return "Abc";
          case IdcMethod::DimmLink: return "DimmLink";
        }
        return "x";
    });

struct CrossCase
{
    const char *workload;
    IdcMethod method;
};

/** Prints the case by value, keeping the listed test name free of the
 * load address of `workload`. */
void
PrintTo(const CrossCase &c, std::ostream *os)
{
    *os << c.workload << '/' << toString(c.method);
}

class WorkloadFabricMatrix
    : public ::testing::TestWithParam<CrossCase>
{
};

TEST_P(WorkloadFabricMatrix, VerifiesEverywhere)
{
    const auto [wl, method] = GetParam();
    auto cfg = SystemConfig::preset("8D-4C");
    cfg.idcMethod = method;
    if (method != IdcMethod::DimmLink) {
        cfg.pollingMode = PollingMode::Baseline;
        cfg.syncScheme = SyncScheme::Centralized;
    }
    const RunResult r = runOnce(cfg, wl, 2);
    EXPECT_TRUE(r.verified) << wl;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, WorkloadFabricMatrix,
    ::testing::Values(
        CrossCase{"pagerank", IdcMethod::CpuForwarding},
        CrossCase{"pagerank", IdcMethod::DedicatedBus},
        CrossCase{"pagerank", IdcMethod::ChannelBroadcast},
        CrossCase{"pagerank", IdcMethod::DimmLink},
        CrossCase{"gups", IdcMethod::CpuForwarding},
        CrossCase{"gups", IdcMethod::DedicatedBus},
        CrossCase{"gups", IdcMethod::ChannelBroadcast},
        CrossCase{"gups", IdcMethod::DimmLink},
        CrossCase{"hotspot", IdcMethod::CpuForwarding},
        CrossCase{"hotspot", IdcMethod::DimmLink},
        CrossCase{"tspow", IdcMethod::DedicatedBus},
        CrossCase{"tspow", IdcMethod::DimmLink},
        CrossCase{"stream", IdcMethod::DimmLink},
        CrossCase{"nw", IdcMethod::ChannelBroadcast},
        CrossCase{"kmeans", IdcMethod::DedicatedBus},
        CrossCase{"bfs", IdcMethod::DimmLink}),
    [](const auto &info) {
        std::string m;
        switch (info.param.method) {
          case IdcMethod::CpuForwarding: m = "Mcn"; break;
          case IdcMethod::DedicatedBus: m = "Aim"; break;
          case IdcMethod::ChannelBroadcast: m = "Abc"; break;
          case IdcMethod::DimmLink: m = "DimmLink"; break;
        }
        return std::string(info.param.workload) + "_" + m;
    });

// Regression (hang): under broadcast-mode PageRank a DIMM that owns
// no vertices broadcasts a zero-byte span, and its zero-byte DRAM
// access never completed. These shapes leave some DIMMs empty.
struct EmptyBroadcastCase
{
    const char *preset;
    std::uint64_t scale;
    IdcMethod method;
};

// Keeps the ctest names stable: the default printer would dump the
// preset string's address.
void
PrintTo(const EmptyBroadcastCase &c, std::ostream *os)
{
    *os << c.preset << '/' << c.scale << '/' << toString(c.method);
}

class EmptyBroadcast : public ::testing::TestWithParam<EmptyBroadcastCase>
{
};

TEST_P(EmptyBroadcast, PageRankCompletesAndVerifies)
{
    const auto [preset, scale, method] = GetParam();
    auto cfg = SystemConfig::preset(preset);
    cfg.idcMethod = method;
    // A hang trips the watchdog instead of the ctest timeout.
    cfg.watchdog.stallPs = 1000000000;
    System sys(cfg);
    auto p = smallParams(cfg, scale);
    p.rounds = 1;
    p.broadcastMode = true;
    auto wl = workloads::makeWorkload("pagerank", p, sys.addressMap());
    Runner runner(sys, *wl);
    EXPECT_TRUE(runner.run().verified);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EmptyBroadcast,
    ::testing::Values(
        EmptyBroadcastCase{"8D-4C", 3, IdcMethod::DimmLink},
        EmptyBroadcastCase{"8D-4C", 3, IdcMethod::CpuForwarding},
        EmptyBroadcastCase{"16D-8C", 4, IdcMethod::DimmLink},
        EmptyBroadcastCase{"16D-8C", 4, IdcMethod::CpuForwarding}),
    [](const auto &info) {
        std::string name = std::string(info.param.preset) + "_" +
                           (info.param.method == IdcMethod::DimmLink
                                ? "DimmLink"
                                : "Mcn");
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        return name;
    });

// One-DIMM DL groups: a group broadcast has no peer on its own links,
// so it completes at once and the copies reach the other groups
// through the host.
TEST(SingleDimmGroups, BroadcastPageRankVerifiesOnDimmLink)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.idcMethod = IdcMethod::DimmLink;
    cfg.dimmsPerGroup = 1;
    // A hang trips the watchdog instead of the ctest timeout.
    cfg.watchdog.stallPs = 1000000000;
    System sys(cfg);
    auto p = smallParams(cfg);
    p.rounds = 1;
    p.broadcastMode = true;
    auto wl = workloads::makeWorkload("pagerank", p, sys.addressMap());
    Runner runner(sys, *wl);
    EXPECT_TRUE(runner.run().verified);
}

TEST(Determinism, IdenticalRunsProduceIdenticalTiming)
{
    auto cfg = SystemConfig::preset("4D-2C");
    const RunResult a = runOnce(cfg, "pagerank");
    const RunResult b = runOnce(cfg, "pagerank");
    EXPECT_EQ(a.kernelTicks, b.kernelTicks);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_DOUBLE_EQ(a.idcStallPs, b.idcStallPs);
    EXPECT_DOUBLE_EQ(a.linkBytes, b.linkBytes);
}

TEST(Metrics, DimmLinkBeatsMcnOnBfs)
{
    auto dl_cfg = SystemConfig::preset("8D-4C");
    dl_cfg.idcMethod = IdcMethod::DimmLink;
    auto mcn_cfg = SystemConfig::preset("8D-4C");
    mcn_cfg.idcMethod = IdcMethod::CpuForwarding;
    mcn_cfg.pollingMode = PollingMode::Baseline;

    const RunResult dl = runOnce(dl_cfg, "bfs");
    const RunResult mcn = runOnce(mcn_cfg, "bfs");
    EXPECT_LT(dl.kernelTicks, mcn.kernelTicks);
    // Absolute remote-stall time shrinks; the *ratio* may not at
    // tiny problem scales because the DL run's denominator (total
    // time) shrinks even faster than its stalls.
    EXPECT_LT(dl.idcStallPs, mcn.idcStallPs);
}

TEST(Metrics, TrafficBreakdownIsConsistent)
{
    auto cfg = SystemConfig::preset("8D-4C");
    const RunResult r = runOnce(cfg, "pagerank");
    EXPECT_GT(r.localBytes, 0.0);
    EXPECT_GT(r.linkBytes, 0.0);
    EXPECT_GT(r.hostBytes, 0.0); // inter-group traffic exists
    EXPECT_DOUBLE_EQ(r.busBytes, 0.0); // no AIM bus in DIMM-Link
    EXPECT_GT(r.busOccupancy, 0.0);
    EXPECT_LT(r.busOccupancy, 1.0);
}

TEST(Metrics, EnergyComponentsArePopulated)
{
    auto cfg = SystemConfig::preset("4D-2C");
    const RunResult r = runOnce(cfg, "kmeans", 1);
    EXPECT_GT(r.energy.dramPj, 0.0);
    EXPECT_GT(r.energy.linkPj, 0.0);
    EXPECT_GT(r.energy.nmpCorePj, 0.0);
    EXPECT_GT(r.energy.total(), r.energy.idc());
}

TEST(Mapping, DistanceAwareRunVerifiesAndProfiles)
{
    auto cfg = SystemConfig::preset("8D-4C");
    cfg.distanceAwareMapping = true;
    System sys(cfg);
    auto wl = workloads::makeWorkload("pagerank",
                                      smallParams(cfg, 9),
                                      sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.profilingTicks, 0u);
    EXPECT_LT(r.profilingTicks, r.kernelTicks);
    EXPECT_EQ(runner.placement().size(), 32u);
}

TEST(Mapping, OptimizedPlacementDoesNotHurtMuch)
{
    auto base_cfg = SystemConfig::preset("8D-4C");
    auto opt_cfg = base_cfg;
    opt_cfg.distanceAwareMapping = true;
    const RunResult base = runOnce(base_cfg, "kmeans", 1);
    System sys(opt_cfg);
    auto wl = workloads::makeWorkload("kmeans",
                                      smallParams(opt_cfg, 1),
                                      sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult opt = runner.run();
    EXPECT_TRUE(opt.verified);
    // Including profiling overhead, stay within 1.5x of the base.
    EXPECT_LT(static_cast<double>(opt.kernelTicks),
              1.5 * static_cast<double>(base.kernelTicks));
}

TEST(HostBaseline, RunsAndVerifies)
{
    auto cfg = SystemConfig::preset("4D-2C");
    HostRunner host(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.host.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = 8;
    p.rounds = 4;
    dram::GlobalAddressMap gmap(cfg.numDimms,
                                cfg.dimm.capacityBytes);
    auto wl = workloads::makeWorkload("bfs", p, gmap);
    const RunResult r = host.run(*wl);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.kernelTicks, 0u);
}

TEST(HostBaseline, BroadcastModeVerifies)
{
    // Broadcast-mode PageRank on the host baseline: a host core
    // carries out each Broadcast op as a copy into every DIMM.
    auto cfg = SystemConfig::preset("8D-4C");
    HostRunner host(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.host.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = 5;
    p.rounds = 2;
    p.broadcastMode = true;
    dram::GlobalAddressMap gmap(cfg.numDimms,
                                cfg.dimm.capacityBytes);
    auto wl = workloads::makeWorkload("pagerank", p, gmap);
    const RunResult r = host.run(*wl);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(host.stats().sumScalar("hostcore", "broadcasts"), 0.0);
}

TEST(HostBaseline, NmpIsFasterOnMemoryBoundKernels)
{
    // Hotspot is the cleanly bandwidth-bound kernel at test scale
    // (see EXPERIMENTS.md on speedup compression for the random-
    // access graph kernels in the scaled-down reproduction).
    auto cfg = SystemConfig::preset("16D-8C");
    const RunResult nmp = runOnce(cfg, "hotspot", 5);
    HostRunner host(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.host.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = 5;
    p.rounds = 4;
    dram::GlobalAddressMap gmap(cfg.numDimms,
                                cfg.dimm.capacityBytes);
    auto wl = workloads::makeWorkload("hotspot", p, gmap);
    const RunResult cpu = host.run(*wl);
    EXPECT_TRUE(cpu.verified);
    EXPECT_TRUE(nmp.verified);
    EXPECT_LT(nmp.kernelTicks, cpu.kernelTicks);
}

TEST(HostAccessMode, LoadAndReadbackMoveDataThroughChannels)
{
    auto cfg = SystemConfig::preset("4D-2C");
    System sys(cfg);
    const Addr base = sys.addressMap().globalOf(1, 0);

    const double busy0 = sys.channelBusyPs();
    const Tick load = sys.hostLoad(base, 1 << 20);
    EXPECT_GT(load, 0u);
    // 1 MB at 19.2 GB/s is at least ~52 us of channel time.
    EXPECT_GT(sys.channelBusyPs() - busy0, 50.0 * tickPerUs);
    EXPECT_GT(sys.stats().scalar("dimm1.mc.localWrites"), 0.0);

    const Tick rb = sys.hostReadback(base, 1 << 20);
    EXPECT_GT(rb, 0u);
    EXPECT_GT(sys.stats().scalar("dimm1.mc.localReads"), 0.0);
}

TEST(HostAccessMode, ForbiddenDuringKernels)
{
    auto cfg = SystemConfig::preset("4D-2C");
    System sys(cfg);
    sys.enterNmpMode();
    EXPECT_DEATH(sys.hostLoad(0, 4096), "NMP-Access");
    sys.exitNmpMode();
}

TEST(ModeSwitch, NmpModeToggles)
{
    auto cfg = SystemConfig::preset("4D-2C");
    System sys(cfg);
    EXPECT_FALSE(sys.inNmpMode());
    sys.enterNmpMode();
    EXPECT_TRUE(sys.inNmpMode());
    sys.exitNmpMode();
    EXPECT_FALSE(sys.inNmpMode());
    EXPECT_DEATH(sys.exitNmpMode(), "not in NMP");
}

TEST(Topologies, AllTopologiesRunBfs)
{
    for (Topology topo : {Topology::HalfRing, Topology::Ring,
                          Topology::Mesh, Topology::Torus}) {
        auto cfg = SystemConfig::preset("8D-4C");
        cfg.link.topology = topo;
        const RunResult r = runOnce(cfg, "bfs");
        EXPECT_TRUE(r.verified) << toString(topo);
    }
}

TEST(PollingModes, AllModesRunOnDimmLink)
{
    for (PollingMode mode :
         {PollingMode::Baseline, PollingMode::BaselineInterrupt,
          PollingMode::Proxy, PollingMode::ProxyInterrupt}) {
        auto cfg = SystemConfig::preset("8D-4C");
        cfg.pollingMode = mode;
        const RunResult r = runOnce(cfg, "kmeans", 1);
        EXPECT_TRUE(r.verified) << toString(mode);
    }
}

} // namespace
} // namespace dimmlink
