/** @file Synchronization tests: barrier correctness and the
 * centralized vs hierarchical schemes over every fabric. */

#include <gtest/gtest.h>

#include <memory>

#include "common/config.hh"
#include "common/stats.hh"
#include "idc/fabric.hh"
#include "sim/event_queue.hh"
#include "sync/sync_manager.hh"

namespace dimmlink {
namespace {

class SyncFixture
{
  public:
    SyncFixture(SyncScheme scheme, IdcMethod method,
                const std::string &preset)
    {
        cfg = SystemConfig::preset(preset);
        cfg.idcMethod = method;
        cfg.syncScheme = scheme;
        for (unsigned c = 0; c < cfg.numChannels; ++c) {
            const std::string n = "host.channel" + std::to_string(c);
            channels.push_back(std::make_unique<host::Channel>(
                eq, n, cfg.host.channelGBps, reg.group(n)));
            ptrs.push_back(channels.back().get());
        }
        fabric = idc::makeFabric(eq, cfg, ptrs, reg);
        fabric->setMemAccess([this](DimmId, Addr, std::uint32_t,
                                    bool,
                                    EventCallback done) {
            eq.scheduleIn(50 * tickPerNs, std::move(done));
        });
        fabric->enterNmpMode();
        sync = std::make_unique<SyncManager>(eq, cfg, fabric.get(),
                                             reg);
    }

    ~SyncFixture() { fabric->exitNmpMode(); }

    /** Run one barrier episode with @p homes; return the span from
     * first arrival to last release. */
    Tick
    episode(const std::vector<DimmId> &homes)
    {
        sync->setParticipants(homes);
        unsigned released = 0;
        Tick last = 0;
        const Tick start = eq.now();
        for (unsigned t = 0; t < homes.size(); ++t) {
            sync->arrive(static_cast<ThreadId>(t), homes[t], [&] {
                ++released;
                last = eq.now();
            });
        }
        while (released < homes.size() && eq.step()) {
        }
        EXPECT_EQ(released, homes.size());
        return last - start;
    }

    EventQueue eq;
    stats::Registry reg;
    SystemConfig cfg;
    std::vector<std::unique_ptr<host::Channel>> channels;
    std::vector<host::Channel *> ptrs;
    std::unique_ptr<idc::Fabric> fabric;
    std::unique_ptr<SyncManager> sync;
};

struct SyncCase
{
    SyncScheme scheme;
    IdcMethod method;
};

class SyncAcrossFabrics : public ::testing::TestWithParam<SyncCase>
{
};

TEST_P(SyncAcrossFabrics, BarrierReleasesEveryThread)
{
    const auto [scheme, method] = GetParam();
    SyncFixture f(scheme, method, "8D-4C");
    std::vector<DimmId> homes;
    for (unsigned t = 0; t < 32; ++t)
        homes.push_back(static_cast<DimmId>(t / 4));
    const Tick span = f.episode(homes);
    EXPECT_GT(span, 0u);
    EXPECT_EQ(f.sync->episodes(), 1u);
}

TEST_P(SyncAcrossFabrics, RepeatedEpisodesWork)
{
    const auto [scheme, method] = GetParam();
    SyncFixture f(scheme, method, "4D-2C");
    std::vector<DimmId> homes{0, 0, 1, 2, 3, 3};
    for (int i = 0; i < 5; ++i)
        f.episode(homes);
    EXPECT_EQ(f.sync->episodes(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SyncAcrossFabrics,
    ::testing::Values(
        SyncCase{SyncScheme::Centralized, IdcMethod::CpuForwarding},
        SyncCase{SyncScheme::Centralized, IdcMethod::DedicatedBus},
        SyncCase{SyncScheme::Centralized, IdcMethod::DimmLink},
        SyncCase{SyncScheme::Hierarchical, IdcMethod::DimmLink},
        SyncCase{SyncScheme::Hierarchical,
                 IdcMethod::CpuForwarding}));

TEST(SyncManager, MastersAreGroupMiddles)
{
    SyncFixture f(SyncScheme::Hierarchical, IdcMethod::DimmLink,
                  "16D-8C");
    EXPECT_EQ(f.sync->masterOf(0), 4);
    EXPECT_EQ(f.sync->masterOf(1), 12);
    EXPECT_EQ(f.sync->globalMaster(), 4);
}

TEST(SyncManager, HierarchicalSendsFewerInterDimmMessages)
{
    // 16 DIMMs, 2 groups, 4 threads per DIMM.
    std::vector<DimmId> homes;
    for (unsigned t = 0; t < 64; ++t)
        homes.push_back(static_cast<DimmId>(t / 4));

    SyncFixture hier(SyncScheme::Hierarchical, IdcMethod::DimmLink,
                     "16D-8C");
    hier.episode(homes);
    const double hier_msgs = hier.reg.scalar("sync.messages");

    SyncFixture cent(SyncScheme::Centralized, IdcMethod::DimmLink,
                     "16D-8C");
    cent.episode(homes);
    const double cent_msgs = cent.reg.scalar("sync.messages");

    EXPECT_LT(hier_msgs, cent_msgs);
}

TEST(SyncManager, HierarchicalBeatsCentralizedOverDimmLink)
{
    std::vector<DimmId> homes;
    for (unsigned t = 0; t < 64; ++t)
        homes.push_back(static_cast<DimmId>(t / 4));

    SyncFixture hier(SyncScheme::Hierarchical, IdcMethod::DimmLink,
                     "16D-8C");
    SyncFixture cent(SyncScheme::Centralized, IdcMethod::DimmLink,
                     "16D-8C");
    // Average several episodes; same fabric, different schemes.
    Tick hier_t = 0, cent_t = 0;
    for (int i = 0; i < 3; ++i) {
        hier_t += hier.episode(homes);
        cent_t += cent.episode(homes);
    }
    EXPECT_LT(hier_t, cent_t);
}

TEST(SyncManager, SingleThreadBarrierIsImmediate)
{
    SyncFixture f(SyncScheme::Hierarchical, IdcMethod::DimmLink,
                  "4D-2C");
    const Tick span = f.episode({0});
    EXPECT_LT(span, 1 * tickPerUs);
}

TEST(SyncManagerDeath, ArrivalWithoutParticipantsPanics)
{
    SyncFixture f(SyncScheme::Centralized, IdcMethod::DimmLink,
                  "4D-2C");
    EXPECT_DEATH(f.sync->arrive(0, 0, [] {}), "participants");
}

} // namespace
} // namespace dimmlink
