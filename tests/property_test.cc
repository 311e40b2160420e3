/** @file Cross-cutting property tests: reference-model equivalence
 * for the cache, ordering invariants of the event queue and network,
 * DRAM latency bounds, and random packet round-trips. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <list>
#include <map>

#include "common/rng.hh"
#include "dimm/cache.hh"
#include "energy/energy_model.hh"
#include "common/stats.hh"
#include "dram/dram_controller.hh"
#include "noc/network.hh"
#include "proto/codec.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace {

/** Oracle LRU cache built from std::map + std::list. */
class RefCache
{
  public:
    RefCache(unsigned sets, unsigned ways, unsigned line)
        : sets(sets), ways(ways), line(line), lru(sets)
    {
    }

    bool
    access(Addr addr)
    {
        const Addr tag = addr / line / sets;
        const std::size_t set = (addr / line) % sets;
        auto &l = lru[set];
        for (auto it = l.begin(); it != l.end(); ++it) {
            if (*it == tag) {
                l.erase(it);
                l.push_front(tag);
                return true;
            }
        }
        l.push_front(tag);
        if (l.size() > ways)
            l.pop_back();
        return false;
    }

  private:
    unsigned sets, ways, line;
    std::vector<std::list<Addr>> lru;
};

class CacheVsOracle : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheVsOracle, HitMissSequenceMatchesReferenceLru)
{
    stats::Registry reg;
    Cache cache("c", 4096, 4, 64, reg.group("c"));
    RefCache ref(cache.numSets(), 4, 64);
    Rng rng(GetParam());
    for (int i = 0; i < 30000; ++i) {
        const Addr a = rng.below(1 << 16) & ~Addr(63);
        const bool hit = cache.access(a, rng.chance(0.3)).hit;
        const bool ref_hit = ref.access(a);
        ASSERT_EQ(hit, ref_hit) << "access " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheVsOracle,
                         ::testing::Values(3, 5, 8, 13, 21));

TEST(EventQueueProperty, RandomScheduleMatchesSortedOrder)
{
    Rng rng(77);
    EventQueue eq;
    std::vector<Tick> fired;
    std::vector<Tick> expected;
    for (int i = 0; i < 2000; ++i) {
        const Tick when = rng.below(100000);
        expected.push_back(when);
        eq.schedule(when, [&fired, &eq] { fired.push_back(eq.now()); });
    }
    std::sort(expected.begin(), expected.end());
    eq.run();
    EXPECT_EQ(fired, expected);
}

TEST(EventQueueProperty, RandomDeschedulesNeverFire)
{
    Rng rng(123);
    EventQueue eq;
    unsigned fired = 0;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 1000; ++i)
        ids.push_back(
            eq.schedule(rng.below(5000), [&fired] { ++fired; }));
    unsigned cancelled = 0;
    for (std::size_t i = 0; i < ids.size(); i += 3) {
        eq.deschedule(ids[i]);
        ++cancelled;
    }
    eq.run();
    EXPECT_EQ(fired, 1000 - cancelled);
}

TEST(DramProperty, LatencyAlwaysAtLeastIdealPipeline)
{
    EventQueue eq;
    stats::Registry reg;
    const auto timing = dram::Timing::preset("DDR4_2400");
    dram::DramController ctrl(eq, "c", timing, 2, 64,
                              reg.group("c"));
    Rng rng(5);
    // The data burst alone takes tBL; nothing may complete faster.
    const Tick floor_lat = timing.cyc(timing.tBL);
    unsigned done = 0;
    constexpr unsigned total = 300;
    std::vector<Tick> issued_at(total);
    unsigned submitted = 0;
    std::function<void()> pump = [&] {
        while (submitted < total) {
            dram::DramRequest req;
            req.local = rng.below(1 << 22) & ~Addr(63);
            req.isWrite = rng.chance(0.3);
            const unsigned id = submitted;
            issued_at[id] = eq.now();
            req.done = [&, id] {
                ++done;
                ASSERT_GE(eq.now() - issued_at[id], floor_lat);
            };
            if (!ctrl.enqueue(std::move(req)))
                return;
            ++submitted;
        }
    };
    ctrl.setUnblockCallback(pump);
    pump();
    while (done < total && eq.step()) {
    }
    EXPECT_EQ(done, total);
}

TEST(NocProperty, SameFlowMessagesArriveInOrder)
{
    EventQueue eq;
    stats::Registry reg;
    LinkConfig lc;
    noc::Network net(eq, "n", lc, 8, reg);
    Rng rng(9);

    std::map<std::pair<int, int>, unsigned> last_seen;
    unsigned delivered = 0;
    constexpr unsigned total = 400;
    for (unsigned i = 0; i < total; ++i) {
        noc::Message m;
        m.src = static_cast<int>(rng.below(8));
        m.dst = static_cast<int>(rng.below(8));
        m.flits = 1 + static_cast<unsigned>(rng.below(16));
        m.deliver = [&, src = m.src, dst = m.dst, id = i + 1](int) {
            auto &last = last_seen[{src, dst}];
            // FIFO per (src, dst) flow: ids rise monotonically.
            ASSERT_GT(id, last);
            last = id;
            ++delivered;
        };
        // Messages that find the injection port full wait in their
        // node's FIFO.
        net.inject(std::move(m));
    }
    while (delivered < total && eq.step()) {
    }
    EXPECT_EQ(delivered, total);
}

TEST(ProtoProperty, RandomPacketsRoundTrip)
{
    Rng rng(31);
    for (int i = 0; i < 500; ++i) {
        proto::Packet p;
        p.src = static_cast<std::uint8_t>(rng.below(64));
        p.dst = static_cast<std::uint8_t>(rng.below(64));
        p.cmd = static_cast<proto::DlCommand>(rng.below(9));
        p.addr = rng.below(1ull << 37);
        p.tag = static_cast<std::uint8_t>(rng.below(64));
        p.dll = static_cast<std::uint32_t>(rng.next());
        p.payload.resize(rng.below(257));
        for (auto &b : p.payload)
            b = static_cast<std::uint8_t>(rng.next());

        const auto wire = proto::encode(p);
        proto::Packet q;
        ASSERT_TRUE(proto::decode(wire, q));
        ASSERT_EQ(q.src, p.src);
        ASSERT_EQ(q.dst, p.dst);
        ASSERT_EQ(q.cmd, p.cmd);
        ASSERT_EQ(q.addr, p.addr);
        ASSERT_EQ(q.tag, p.tag);
        ASSERT_EQ(q.dll, p.dll);
        // Payload equal up to flit padding.
        ASSERT_GE(q.payload.size(), p.payload.size());
        for (std::size_t b = 0; b < p.payload.size(); ++b)
            ASSERT_EQ(q.payload[b], p.payload[b]);
    }
}

TEST(StatsProperty, EnergyComponentsNonNegative)
{
    // EnergyReport arithmetic sanity across random counter values.
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EnergyReport r;
        r.dramPj = static_cast<double>(rng.below(1 << 30));
        r.linkPj = static_cast<double>(rng.below(1 << 30));
        r.hostIoPj = static_cast<double>(rng.below(1 << 30));
        r.forwardPj = static_cast<double>(rng.below(1 << 30));
        r.busPj = static_cast<double>(rng.below(1 << 30));
        r.nmpCorePj = static_cast<double>(rng.below(1 << 30));
        ASSERT_GE(r.total(), r.idc());
        ASSERT_GE(r.idc(), r.linkPj);
        ASSERT_DOUBLE_EQ(r.total() - r.idc(),
                         r.dramPj + r.nmpCorePj);
    }
}

} // namespace
} // namespace dimmlink
