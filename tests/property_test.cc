/** @file Cross-cutting property tests: reference-model equivalence
 * for the cache, ordering invariants of the event queue and network,
 * DRAM latency bounds, and random packet round-trips. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <list>
#include <map>
#include <optional>

#include "common/bitfield.hh"
#include "common/crc32.hh"
#include "common/rng.hh"
#include "dimm/cache.hh"
#include "energy/energy_model.hh"
#include "common/stats.hh"
#include "dram/dram_controller.hh"
#include "noc/network.hh"
#include "proto/codec.hh"
#include "proto/dll.hh"
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

/** The Fig. 3 CRC verdict on @p image, computed from its fields. */
bool
crcHolds(const std::vector<std::uint8_t> &image, std::size_t tail)
{
    std::uint32_t field = 0;
    std::memcpy(&field, image.data() + tail, 4);
    std::uint32_t crc = crc32Update(0, image.data(), tail);
    crc = crc32Update(crc, image.data() + tail + 4, 4);
    return crc == field;
}

TEST(ProtoProperty, RandomPacketsRoundTrip)
{
    using proto::HeaderLayout;
    Rng rng(31);
    for (int i = 0; i < 500; ++i) {
        proto::Packet p;
        p.src = static_cast<std::uint8_t>(rng.below(64));
        p.dst = static_cast<std::uint8_t>(rng.below(64));
        p.cmd = static_cast<proto::DlCommand>(rng.below(9));
        p.addr = rng.below(1ull << 37);
        p.tag = static_cast<std::uint8_t>(rng.below(64));
        p.dll = static_cast<std::uint32_t>(rng.next());
        p.payloadBytes = static_cast<unsigned>(
            rng.below(proto::maxPayloadBytes + 1));

        const auto wire = proto::encode(p);
        proto::Packet q;
        ASSERT_TRUE(proto::decode(wire, q));
        ASSERT_EQ(q.src, p.src);
        ASSERT_EQ(q.dst, p.dst);
        ASSERT_EQ(q.cmd, p.cmd);
        ASSERT_EQ(q.addr, p.addr);
        ASSERT_EQ(q.tag, p.tag);
        ASSERT_EQ(q.dll, p.dll);
        // Payload length equal up to flit padding.
        ASSERT_EQ(q.payloadBytes, p.payloadFlits() * proto::flitBytes);

        // The receiver on the same packet, as sequence 0 of a fresh
        // stream so a valid arrival is delivered at once.
        proto::Packet sent = p;
        sent.dll &= 0xffff0000u;
        const std::size_t tail = proto::tailOffset(p.payloadFlits());
        const auto arrive = [&](const std::vector<std::uint32_t> &flips,
                                std::vector<proto::Packet> &out,
                                std::optional<proto::Packet> &ack) {
            stats::Registry reg;
            proto::RetryReceiver rx(reg.group("rx"));
            rx.onArrive(sent, flips, out, ack);
        };

        // Undamaged: ACKed and delivered exactly as decode(encode())
        // reports the packet, with no image built.
        proto::Packet ref;
        ASSERT_TRUE(proto::decode(proto::encode(sent), ref));
        std::vector<proto::Packet> out;
        std::optional<proto::Packet> ack;
        arrive({}, out, ack);
        ASSERT_EQ(out.size(), 1u);
        ASSERT_EQ(out[0], ref);
        ASSERT_TRUE(ack.has_value());
        ASSERT_EQ(ack->cmd, proto::DlCommand::DllAck);

        // Damaged at 1-8 bits, repeats allowed (a repeat cancels), a
        // share forced into LEN, SRC/DST, TAG and the sequence number.
        std::vector<std::uint32_t> flips;
        const std::size_t n = 1 + rng.below(8);
        while (flips.size() < n) {
            std::uint64_t bit;
            switch (rng.below(6)) {
              case 0: bit = 59 + rng.below(5); break;  // LEN
              case 1: bit = rng.below(12); break;      // SRC/DST
              case 2: bit = 53 + rng.below(6); break;  // TAG
              case 3: bit = (tail + 4) * 8 + rng.below(16); break; // seq
              case 4:
                bit = flips.empty() ? 0 : flips[rng.below(flips.size())];
                break;
              default: bit = rng.below(wire.size() * 8); break;
            }
            flips.push_back(static_cast<std::uint32_t>(bit));
        }
        std::vector<std::uint8_t> image = proto::encode(sent);
        for (const std::uint32_t bit : flips)
            image[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        std::uint64_t h = 0;
        std::memcpy(&h, image.data(), 8);
        const auto field = [h](unsigned pos, unsigned width) {
            return static_cast<std::uint8_t>(bits(h, pos, width));
        };
        const bool len_hit =
            field(64 - HeaderLayout::lenBits, HeaderLayout::lenBits) !=
            p.payloadFlits();
        const bool valid = !len_hit && crcHolds(image, tail);

        out.clear();
        ack.reset();
        arrive(flips, out, ack);
        ASSERT_EQ(out.size(), valid ? 1u : 0u) << "draw " << i;
        if (valid) {
            // The flips cancelled out.
            ASSERT_EQ(out[0], ref);
            ASSERT_TRUE(ack.has_value());
            ASSERT_EQ(ack->cmd, proto::DlCommand::DllAck);
            continue;
        }
        ASSERT_EQ(ack.has_value(), !len_hit) << "draw " << i;
        if (len_hit)
            continue;
        proto::Packet nack;
        nack.cmd = proto::DlCommand::DllNack;
        nack.src = field(HeaderLayout::srcBits, HeaderLayout::dstBits);
        nack.dst = field(0, HeaderLayout::srcBits);
        nack.tag = field(64 - HeaderLayout::lenBits - HeaderLayout::tagBits,
                         HeaderLayout::tagBits);
        std::uint32_t dll = 0;
        std::memcpy(&dll, image.data() + tail + 4, 4);
        nack.dll = dll & 0xffff;
        ASSERT_EQ(*ack, nack) << "draw " << i;
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
