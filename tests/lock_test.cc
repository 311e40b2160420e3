/** @file LockManager tests: mutual exclusion, FIFO granting, and
 * behaviour over the DIMM-Link fabric under contention. */

#include <gtest/gtest.h>

#include <memory>

#include "common/config.hh"
#include "idc/fabric.hh"
#include "sync/lock_manager.hh"

namespace dimmlink {
namespace {

class LockFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg = SystemConfig::preset("8D-4C");
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
            eq.scheduleIn(40 * tickPerNs, std::move(done));
        });
        fabric->enterNmpMode();
        locks = std::make_unique<LockManager>(eq, cfg, fabric.get(),
                                              reg);
    }

    void TearDown() override { fabric->exitNmpMode(); }

    EventQueue eq;
    stats::Registry reg;
    SystemConfig cfg;
    std::vector<std::unique_ptr<host::Channel>> channels;
    std::vector<host::Channel *> ptrs;
    std::unique_ptr<idc::Fabric> fabric;
    std::unique_ptr<LockManager> locks;
};

TEST_F(LockFixture, UncontendedAcquireGrantsQuickly)
{
    locks->createLock(1, 2);
    bool granted = false;
    locks->acquire(1, 5, [&] { granted = true; });
    while (!granted && eq.step()) {
    }
    EXPECT_TRUE(granted);
    EXPECT_FALSE(locks->idle(1));
    locks->release(1, 5);
    eq.runUntil(eq.now() + 10 * tickPerUs);
    EXPECT_TRUE(locks->idle(1));
}

TEST_F(LockFixture, MutualExclusionUnderContention)
{
    locks->createLock(7, 0);
    unsigned holders = 0;
    unsigned max_holders = 0;
    unsigned completed = 0;
    constexpr unsigned requesters = 12;

    for (unsigned i = 0; i < requesters; ++i) {
        const DimmId d = static_cast<DimmId>(i % 8);
        locks->acquire(7, d, [&, d] {
            ++holders;
            max_holders = std::max(max_holders, holders);
            // Hold the lock for a short critical section.
            eq.scheduleIn(100 * tickPerNs, [&, d] {
                --holders;
                ++completed;
                locks->release(7, d);
            });
        });
    }
    while (completed < requesters && eq.step()) {
    }
    EXPECT_EQ(completed, requesters);
    EXPECT_EQ(max_holders, 1u); // never two owners
    // Let the final release message reach the lock's home DIMM.
    eq.runUntil(eq.now() + 100 * tickPerUs);
    EXPECT_TRUE(locks->idle(7));
    EXPECT_EQ(locks->acquisitions(), requesters);
    EXPECT_GT(reg.scalar("sync.locks.contended"), 0.0);
}

TEST_F(LockFixture, FifoGrantOrder)
{
    locks->createLock(3, 4);
    std::vector<int> order;
    unsigned completed = 0;
    // First holder keeps the lock while others queue.
    locks->acquire(3, 0, [&] {
        order.push_back(0);
        eq.scheduleIn(1 * tickPerUs, [&] {
            ++completed;
            locks->release(3, 0);
        });
    });
    eq.runUntil(eq.now() + 100 * tickPerNs);
    for (int i = 1; i <= 3; ++i) {
        locks->acquire(3, static_cast<DimmId>(i), [&, i] {
            order.push_back(i);
            ++completed;
            locks->release(3, static_cast<DimmId>(i));
        });
        // Stagger the enqueue order deterministically.
        eq.runUntil(eq.now() + 10 * tickPerUs);
    }
    while (completed < 4 && eq.step()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(LockFixture, IndependentLocksDoNotInterfere)
{
    locks->createLock(10, 1);
    locks->createLock(11, 6);
    bool a = false, b = false;
    locks->acquire(10, 0, [&] { a = true; });
    locks->acquire(11, 7, [&] { b = true; });
    while ((!a || !b) && eq.step()) {
    }
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
}

TEST_F(LockFixture, DeathOnMisuse)
{
    locks->createLock(1, 0);
    EXPECT_DEATH(locks->createLock(1, 0), "already exists");
    EXPECT_DEATH(locks->acquire(99, 0, [] {}), "unknown lock");
    EXPECT_DEATH(locks->release(1, 0), "not held");
}

} // namespace
} // namespace dimmlink
