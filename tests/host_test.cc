/** @file Host-side model tests: channels, the forwarding controller,
 * and the four polling mechanisms of Table III. */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "host/channel.hh"
#include "host/forwarder.hh"
#include "host/polling.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace host {
namespace {

TEST(Channel, TransferTimeMatchesBandwidth)
{
    EventQueue eq;
    stats::Registry reg;
    Channel ch(eq, "ch", 19.2, reg.group("ch"));
    // 19200 bytes at 19.2 GB/s = 1 us.
    EXPECT_EQ(ch.transfer(19200), 1000000u);
    // Second transfer queues behind the first.
    EXPECT_EQ(ch.transfer(19200), 2000000u);
    EXPECT_DOUBLE_EQ(reg.scalar("ch.bytes"), 38400.0);
}

TEST(Channel, OccupyHonoursEarliest)
{
    EventQueue eq;
    stats::Registry reg;
    Channel ch(eq, "ch", 19.2, reg.group("ch"));
    EXPECT_EQ(ch.occupy(100, 5000), 5100u);
    EXPECT_EQ(ch.occupy(100, 0), 5200u); // busy until 5100
}

class HostFixture : public ::testing::Test
{
  protected:
    void
    build(PollingMode mode, unsigned dimms = 4, unsigned chans = 2)
    {
        cfg = SystemConfig::preset(dimms == 4 ? "4D-2C" : "8D-4C");
        (void)chans;
        cfg.pollingMode = mode;
        for (unsigned c = 0; c < cfg.numChannels; ++c) {
            const std::string n = "ch" + std::to_string(c);
            channels.push_back(std::make_unique<Channel>(
                eq, n, cfg.host.channelGBps, reg.group(n)));
            ptrs.push_back(channels.back().get());
        }
    }

    EventQueue eq;
    stats::Registry reg;
    SystemConfig cfg;
    std::vector<std::unique_ptr<Channel>> channels;
    std::vector<Channel *> ptrs;
};

TEST_F(HostFixture, ForwarderMovesDataBetweenChannels)
{
    build(PollingMode::Baseline);
    Forwarder fwd(eq, cfg, ptrs, reg);
    Tick done_at = 0;
    fwd.forward(0, 2, 272, [&] { done_at = eq.now(); });
    eq.run();
    // src read + 120 ns forward + dst write.
    EXPECT_GT(done_at, cfg.host.forwardLatencyPs);
    EXPECT_DOUBLE_EQ(reg.scalar("host.forwarder.forwards"), 1.0);
    EXPECT_DOUBLE_EQ(reg.scalar("ch0.bytes"), 0.0); // occupies, not
                                                    // byte-transfers
    EXPECT_GT(reg.scalar("ch0.busyPs"), 0.0);
    EXPECT_GT(reg.scalar("ch1.busyPs"), 0.0);
}

TEST_F(HostFixture, ForwarderPipelinesAcrossWorkers)
{
    build(PollingMode::Baseline);
    Forwarder fwd(eq, cfg, ptrs, reg);
    Tick first = 0, second = 0;
    fwd.forward(0, 2, 1024, [&] { first = eq.now(); });
    fwd.forward(1, 3, 1024, [&] { second = eq.now(); });
    eq.run();
    // Disjoint channel pairs overlap: the second packet finishes
    // within one issue slot of the first, not a full latency later.
    EXPECT_LT(second, first + cfg.host.forwardLatencyPs);
    EXPECT_GE(second, first);
}

TEST_F(HostFixture, ForwarderThroughputBoundedByIssueRate)
{
    build(PollingMode::Baseline);
    Forwarder fwd(eq, cfg, ptrs, reg);
    constexpr unsigned n = 64;
    unsigned done = 0;
    Tick last = 0;
    for (unsigned i = 0; i < n; ++i)
        fwd.forward(0, 2, 64, [&] {
            ++done;
            last = eq.now();
        });
    eq.run();
    EXPECT_EQ(done, n);
    // n packets need at least n/workers issue slots.
    const Tick min_span =
        n / cfg.host.pollThreads * cfg.host.forwardIssuePs;
    EXPECT_GE(last, min_span);
}

TEST_F(HostFixture, BaselinePollingDiscoversRequests)
{
    build(PollingMode::Baseline);
    std::vector<DimmId> targets{0, 1, 2, 3};
    PollingEngine poll(eq, cfg, ptrs, targets, reg);
    bool discovered = false;
    Tick at = 0;
    poll.start();
    eq.scheduleIn(100, [&] {
        poll.request(2, [&] {
            discovered = true;
            at = eq.now();
        });
    });
    eq.runUntil(20 * cfg.host.pollIntervalPs);
    poll.stop();
    EXPECT_TRUE(discovered);
    // Discovered within two sweep periods.
    EXPECT_LE(at, 3 * cfg.host.pollIntervalPs);
}

TEST_F(HostFixture, JobRaisedDuringPollReadRunsAtThatDiscovery)
{
    build(PollingMode::Proxy);
    std::vector<DimmId> targets{2};
    PollingEngine poll(eq, cfg, ptrs, targets, reg);
    std::vector<std::pair<int, Tick>> ran;
    poll.request(2, [&] { ran.emplace_back(1, eq.now()); });
    poll.start();
    // The first sweep's read of DIMM 2 spans [0, pollChannelPs); a
    // second job arrives halfway through it.
    eq.scheduleIn(cfg.host.pollChannelPs / 2, [&] {
        poll.request(2, [&] { ran.emplace_back(2, eq.now()); });
    });
    eq.runUntil(3 * cfg.host.pollIntervalPs);
    poll.stop();
    // Both jobs run at the read's discovery.
    const std::vector<std::pair<int, Tick>> want{
        {1, cfg.host.pollChannelPs}, {2, cfg.host.pollChannelPs}};
    EXPECT_EQ(ran, want);
    // The second request left DIMM 2 pending, so the next sweep finds
    // it again: two non-idle polls out of four.
    EXPECT_DOUBLE_EQ(reg.scalar("host.polling.polls"), 4.0);
    EXPECT_DOUBLE_EQ(reg.scalar("host.polling.idlePolls"), 2.0);
    EXPECT_EQ(
        reg.group("host.polling").distribution("discoveryPs").count(),
        2u);
}

TEST_F(HostFixture, IdlePollingStillCostsBusTime)
{
    build(PollingMode::Baseline);
    std::vector<DimmId> targets{0, 1, 2, 3};
    PollingEngine poll(eq, cfg, ptrs, targets, reg);
    poll.start();
    eq.runUntil(10 * cfg.host.pollIntervalPs);
    poll.stop();
    EXPECT_GT(reg.scalar("host.polling.idlePolls"), 30.0);
    EXPECT_GT(reg.scalar("ch0.busyPs"), 0.0);
}

TEST_F(HostFixture, ProxyPollingTouchesOnlyProxyChannels)
{
    build(PollingMode::Proxy);
    // One proxy per group; 4D-2C has a single group, proxy DIMM 2.
    std::vector<DimmId> targets{2};
    PollingEngine poll(eq, cfg, ptrs, targets, reg);
    poll.start();
    eq.runUntil(10 * cfg.host.pollIntervalPs);
    poll.stop();
    // DIMM 2 sits on channel 1; channel 0 must stay untouched.
    EXPECT_DOUBLE_EQ(reg.scalar("ch0.busyPs"), 0.0);
    EXPECT_GT(reg.scalar("ch1.busyPs"), 0.0);
}

TEST_F(HostFixture, InterruptModeHasNoIdlePolling)
{
    build(PollingMode::BaselineInterrupt);
    std::vector<DimmId> targets{0, 1, 2, 3};
    PollingEngine poll(eq, cfg, ptrs, targets, reg);
    bool discovered = false;
    poll.start();
    eq.runUntil(5 * cfg.host.pollIntervalPs);
    EXPECT_DOUBLE_EQ(reg.scalar("host.polling.polls"), 0.0);

    poll.request(3, [&] { discovered = true; });
    eq.runUntil(eq.now() + 10 * cfg.host.interruptLatencyPs);
    poll.stop();
    EXPECT_TRUE(discovered);
    EXPECT_GE(reg.scalar("host.polling.interrupts"), 1.0);
    // The handler scanned only DIMM 3's channel: 2 polls.
    EXPECT_DOUBLE_EQ(reg.scalar("host.polling.polls"), 2.0);
}

TEST_F(HostFixture, InterruptLatencyDelaysDiscovery)
{
    build(PollingMode::ProxyInterrupt);
    std::vector<DimmId> targets{2};
    PollingEngine poll(eq, cfg, ptrs, targets, reg);
    Tick at = 0;
    poll.start();
    eq.scheduleIn(50, [&] { poll.request(2, [&] { at = eq.now(); }); });
    eq.run();
    poll.stop();
    EXPECT_GE(at, 50 + cfg.host.interruptLatencyPs);
}

TEST_F(HostFixture, PollingOccupancyOrdering)
{
    // Property from Table III / Fig. 15-(b): bus occupation
    // Base >> P-P > P-P+Itrpt over an idle window.
    auto measure = [](PollingMode mode,
                      std::vector<DimmId> targets) {
        EventQueue eq;
        stats::Registry reg;
        auto cfg = SystemConfig::preset("4D-2C");
        cfg.pollingMode = mode;
        std::vector<std::unique_ptr<Channel>> chs;
        std::vector<Channel *> ps;
        for (unsigned c = 0; c < cfg.numChannels; ++c) {
            chs.push_back(std::make_unique<Channel>(
                eq, "ch" + std::to_string(c), cfg.host.channelGBps,
                reg.group("ch" + std::to_string(c))));
            ps.push_back(chs.back().get());
        }
        PollingEngine poll(eq, cfg, ps, targets, reg);
        poll.start();
        eq.runUntil(50 * cfg.host.pollIntervalPs);
        poll.stop();
        double busy = 0;
        for (auto &c : chs)
            busy += c->busyPs();
        return busy;
    };

    const double base =
        measure(PollingMode::Baseline, {0, 1, 2, 3});
    const double proxy = measure(PollingMode::Proxy, {2});
    const double proxy_itrpt =
        measure(PollingMode::ProxyInterrupt, {2});
    EXPECT_GT(base, 2 * proxy);
    EXPECT_EQ(proxy_itrpt, 0.0); // no traffic without requests
}

} // namespace
} // namespace host
} // namespace dimmlink
