/** @file IDC fabric tests: the four fabrics of Table I exercised
 * standalone with a stub remote-memory model. */

#include <gtest/gtest.h>

#include <memory>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "idc/dl_fabric.hh"
#include "idc/fabric.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace idc {
namespace {

class FabricFixture
{
  public:
    FabricFixture(IdcMethod method, const std::string &preset,
                  PollingMode polling = PollingMode::Proxy,
                  const std::vector<std::string> &overrides = {})
    {
        cfg = SystemConfig::preset(preset);
        cfg.idcMethod = method;
        cfg.pollingMode = polling;
        for (const std::string &o : overrides)
            cfg.applyOverride(o);
        for (unsigned c = 0; c < cfg.numChannels; ++c) {
            const std::string n = "host.channel" + std::to_string(c);
            channels.push_back(std::make_unique<host::Channel>(
                eq, n, cfg.host.channelGBps, reg.group(n)));
            ptrs.push_back(channels.back().get());
        }
        fabric = makeFabric(eq, cfg, ptrs, reg);
        // Stub DRAM: every remote access takes 60 ns.
        fabric->setMemAccess([this](DimmId, Addr, std::uint32_t,
                                    bool,
                                    EventCallback done) {
            ++memAccesses;
            eq.scheduleIn(60 * tickPerNs, std::move(done));
        });
        fabric->enterNmpMode();
    }

    ~FabricFixture() { fabric->exitNmpMode(); }

    /** Submit and run to completion; return the latency. */
    Tick
    complete(Transaction t)
    {
        bool done = false;
        Tick done_at = 0;
        const Tick start = eq.now();
        t.onComplete = [&] {
            done = true;
            done_at = eq.now();
        };
        fabric->submit(std::move(t));
        // Polling engines reschedule forever; run until completion.
        while (!done && eq.step()) {
        }
        EXPECT_TRUE(done);
        return done_at - start;
    }

    EventQueue eq;
    stats::Registry reg;
    SystemConfig cfg;
    std::vector<std::unique_ptr<host::Channel>> channels;
    std::vector<host::Channel *> ptrs;
    std::unique_ptr<Fabric> fabric;
    unsigned memAccesses = 0;
};

Transaction
makeTxn(Transaction::Type type, DimmId src, DimmId dst,
        std::uint32_t bytes = 64)
{
    Transaction t;
    t.type = type;
    t.src = src;
    t.dst = dst;
    t.addr = 0x1000;
    t.bytes = bytes;
    return t;
}

class AllFabrics : public ::testing::TestWithParam<IdcMethod>
{
};

TEST_P(AllFabrics, RemoteReadCompletesAndTouchesMemory)
{
    FabricFixture f(GetParam(), "4D-2C");
    const Tick lat =
        f.complete(makeTxn(Transaction::Type::RemoteRead, 3, 0));
    EXPECT_GT(lat, 60u * tickPerNs); // at least the DRAM stub
    EXPECT_EQ(f.memAccesses, 1u);
}

TEST_P(AllFabrics, RemoteWriteCompletes)
{
    FabricFixture f(GetParam(), "4D-2C");
    f.complete(makeTxn(Transaction::Type::RemoteWrite, 0, 3, 256));
    EXPECT_EQ(f.memAccesses, 1u);
}

TEST_P(AllFabrics, BroadcastCompletes)
{
    FabricFixture f(GetParam(), "8D-4C");
    f.complete(makeTxn(Transaction::Type::Broadcast, 0, invalidDimm,
                       1024));
    EXPECT_GE(f.memAccesses, 1u); // source read staging
}

TEST_P(AllFabrics, SyncMessageCompletes)
{
    FabricFixture f(GetParam(), "8D-4C");
    f.complete(makeTxn(Transaction::Type::SyncMessage, 1, 6, 16));
}

TEST_P(AllFabrics, ManyRandomTransactionsAllComplete)
{
    FabricFixture f(GetParam(), "8D-4C");
    Rng rng(11);
    constexpr unsigned total = 120;
    unsigned done = 0;
    for (unsigned i = 0; i < total; ++i) {
        Transaction t;
        const auto kind = rng.below(10);
        t.type = kind < 5 ? Transaction::Type::RemoteRead
                 : kind < 9 ? Transaction::Type::RemoteWrite
                            : Transaction::Type::SyncMessage;
        t.src = static_cast<DimmId>(rng.below(8));
        do {
            t.dst = static_cast<DimmId>(rng.below(8));
        } while (t.dst == t.src);
        t.addr = rng.below(1 << 20) & ~Addr(63);
        t.bytes = 64;
        t.onComplete = [&done] { ++done; };
        f.fabric->submit(std::move(t));
    }
    while (done < total && f.eq.step()) {
    }
    EXPECT_EQ(done, total);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllFabrics,
    ::testing::Values(IdcMethod::CpuForwarding,
                      IdcMethod::DedicatedBus,
                      IdcMethod::ChannelBroadcast,
                      IdcMethod::DimmLink),
    [](const auto &info) {
        return std::string(toString(info.param)) == "ABC-DIMM"
                   ? "AbcDimm"
                   : std::string(toString(info.param)) == "DIMM-Link"
                         ? "DimmLink"
                         : toString(info.param);
    });

TEST(DlFabricTest, IntraGroupIsFasterThanMcnForwarding)
{
    FabricFixture dl(IdcMethod::DimmLink, "4D-2C");
    FabricFixture mcn(IdcMethod::CpuForwarding, "4D-2C");
    const Tick t_dl =
        dl.complete(makeTxn(Transaction::Type::RemoteRead, 0, 3));
    const Tick t_mcn =
        mcn.complete(makeTxn(Transaction::Type::RemoteRead, 0, 3));
    EXPECT_LT(t_dl, t_mcn / 2);
}

TEST(DlFabricTest, IntraGroupUsesNoHostForwarding)
{
    FabricFixture f(IdcMethod::DimmLink, "4D-2C");
    f.complete(makeTxn(Transaction::Type::RemoteRead, 0, 3));
    EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.bytesViaHost"), 0.0);
    EXPECT_GT(f.reg.scalar("fabric.dl.bytesViaLink"), 0.0);
}

TEST(DlFabricTest, InterGroupGoesThroughTheHost)
{
    FabricFixture f(IdcMethod::DimmLink, "8D-4C");
    // Groups: {0..3}, {4..7}.
    f.complete(makeTxn(Transaction::Type::RemoteRead, 0, 7));
    EXPECT_GT(f.reg.scalar("fabric.dl.bytesViaHost"), 0.0);
    EXPECT_GE(f.reg.scalar("host.forwarder.forwards"), 2.0);
}

TEST(DlFabricTest, ProxyNotificationsHappenForNonProxySources)
{
    FabricFixture f(IdcMethod::DimmLink, "8D-4C",
                    PollingMode::Proxy);
    // DIMM 0 is not the group proxy (DIMM 2 is): it must register
    // through the proxy over the link network.
    f.complete(makeTxn(Transaction::Type::RemoteWrite, 0, 7));
    EXPECT_GE(f.reg.scalar("fabric.dl.proxyNotifies"), 1.0);
}

TEST(DlFabricTest, DistanceReflectsHopsAndGroups)
{
    FabricFixture f(IdcMethod::DimmLink, "8D-4C");
    auto &fab = *f.fabric;
    EXPECT_DOUBLE_EQ(fab.distance(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(fab.distance(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(fab.distance(0, 3), 3.0);
    // Crossing groups costs far more than any intra-group path.
    EXPECT_GT(fab.distance(0, 4), fab.distance(0, 3) * 3);
}

TEST(DlFabricTest, ReliablePathEndToEnd)
{
    // A fault model puts intra-group data on the DLL transport: the
    // source DIMM's DL-Controller packetizes and sends under retry,
    // the destination's CRC-checks, ACKs and decodes.
    FabricFixture f(IdcMethod::DimmLink, "4D-2C", PollingMode::Proxy,
                    {"faults.model=ber", "faults.ber=1e-12"});
    f.complete(makeTxn(Transaction::Type::RemoteWrite, 0, 1, 32));
    while (f.fabric->dllInFlight() > 0 && f.eq.step()) {
    }
    EXPECT_EQ(f.fabric->dllInFlight(), 0u);
    EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.dllc0.packetized"), 1.0);
    EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.dllc0.dllAcked"), 1.0);
    EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.dllc0.dllRetries"), 0.0);
    EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.dllc1.dllValid"), 1.0);
    EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.dllc1.decoded"), 1.0);
    EXPECT_EQ(f.memAccesses, 1u);
}

TEST(DlFabricTest, WireBytesIncludeHeaderPerPacket)
{
    EXPECT_EQ(proto::wireBytesFor(0), 16u);
    EXPECT_EQ(proto::wireBytesFor(64), 16u + 64u);
    EXPECT_EQ(proto::wireBytesFor(256), 272u);
    EXPECT_EQ(proto::wireBytesFor(512), 544u);
}

TEST(DlFabricTest, SegmentationMatchesProto)
{
    // What the fabric puts on the bridge is what proto/ sizes: one
    // group (4D-2C), so no host path or remote-group leg adds to it.
    const std::vector<std::vector<std::string>> arms = {
        {}, {"faults.model=ber", "faults.ber=1e-12"}};
    for (const auto &overrides : arms) {
        SCOPED_TRACE(overrides.empty() ? "fault-free" : "DLL-armed");
        FabricFixture f(IdcMethod::DimmLink, "4D-2C", PollingMode::Proxy,
                        overrides);
        f.complete(makeTxn(Transaction::Type::RemoteWrite, 0, 1, 1000));
        while (f.fabric->dllInFlight() > 0 && f.eq.step()) {
        }
        EXPECT_EQ(proto::packetsFor(1000), 4u);
        EXPECT_EQ(proto::wireBytesFor(1000), 1072u);
        EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.packetsViaLink"),
                         static_cast<double>(proto::packetsFor(1000)));
        EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.bytesViaLink"),
                         static_cast<double>(proto::wireBytesFor(1000)));
        EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.packetsViaHost"), 0.0);
        if (!overrides.empty()) {
            // The fault model is armed but corrupted nothing: every
            // packet crossed once, under the DLL, with no retry.
            EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.dllc0.packetized"),
                             static_cast<double>(proto::packetsFor(1000)));
            EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.dllc0.dllRetries"),
                             0.0);
        }
    }

    FabricFixture f(IdcMethod::DimmLink, "4D-2C");
    f.complete(makeTxn(Transaction::Type::Broadcast, 0, 0, 600));
    EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.dl.packetsViaLink"),
                     static_cast<double>(proto::packetsFor(600)));
}

TEST(AimFabricTest, BusContentionSerializes)
{
    FabricFixture f(IdcMethod::DedicatedBus, "4D-2C");
    unsigned done = 0;
    Tick last = 0;
    for (unsigned i = 0; i < 8; ++i) {
        auto t = makeTxn(Transaction::Type::RemoteWrite,
                         static_cast<DimmId>(i % 4),
                         static_cast<DimmId>((i + 1) % 4), 4096);
        t.onComplete = [&] {
            ++done;
            last = f.eq.now();
        };
        f.fabric->submit(std::move(t));
    }
    while (done < 8 && f.eq.step()) {
    }
    // 8 x (4096+16) bytes at 19.2 GB/s is > 1.7 us serialized.
    EXPECT_GT(last, 1700 * tickPerNs);
}

TEST(AbcFabricTest, BroadcastUsesOneOccupancyPerChannel)
{
    FabricFixture f(IdcMethod::ChannelBroadcast, "8D-4C",
                    PollingMode::Baseline);
    f.complete(makeTxn(Transaction::Type::Broadcast, 0, invalidDimm,
                       4096));
    EXPECT_DOUBLE_EQ(f.reg.scalar("fabric.abc.channelBroadcasts"),
                     4.0);
    // vs MCN which would pay per-DIMM: 7 copies.
    FabricFixture m(IdcMethod::CpuForwarding, "8D-4C",
                    PollingMode::Baseline);
    const Tick t_abc = 0;
    (void)t_abc;
    const Tick abc_lat = f.complete(
        makeTxn(Transaction::Type::Broadcast, 0, invalidDimm, 4096));
    const Tick mcn_lat = m.complete(
        makeTxn(Transaction::Type::Broadcast, 0, invalidDimm, 4096));
    EXPECT_LT(abc_lat, mcn_lat);
}

} // namespace
} // namespace idc
} // namespace dimmlink
