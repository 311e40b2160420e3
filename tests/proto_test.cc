/** @file DL protocol tests: header fields, wire format, CRC
 * protection, segmentation, codec latencies, and DLL retry. */

#include <gtest/gtest.h>

#include <type_traits>

#include "common/rng.hh"
#include "common/stats.hh"
#include "proto/codec.hh"
#include "proto/dll.hh"
#include "proto/packet.hh"
#include "sim/event_queue.hh"

#include "fake_dll_owner.hh"

namespace dimmlink {
namespace proto {
namespace {

TEST(Header, FieldRoundTrip)
{
    Packet p;
    p.src = 0x2a;
    p.dst = 0x15;
    p.cmd = DlCommand::WriteReq;
    p.addr = 0x1234567890ull & ((1ull << 37) - 1);
    p.tag = 0x3f;
    p.payloadBytes = 48;

    Packet q;
    decodeHeader(encodeHeader(p), q);
    EXPECT_EQ(q.src, p.src);
    EXPECT_EQ(q.dst, p.dst);
    EXPECT_EQ(q.cmd, p.cmd);
    EXPECT_EQ(q.addr, p.addr);
    EXPECT_EQ(q.tag, p.tag);
}

class HeaderSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HeaderSweep, RandomFieldsSurvive)
{
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        Packet p;
        p.src = static_cast<std::uint8_t>(rng.below(64));
        p.dst = static_cast<std::uint8_t>(rng.below(64));
        p.cmd = static_cast<DlCommand>(rng.below(9));
        p.addr = rng.below(1ull << 37);
        p.tag = static_cast<std::uint8_t>(rng.below(64));
        Packet q;
        decodeHeader(encodeHeader(p), q);
        ASSERT_EQ(q.src, p.src);
        ASSERT_EQ(q.dst, p.dst);
        ASSERT_EQ(q.cmd, p.cmd);
        ASSERT_EQ(q.addr, p.addr);
        ASSERT_EQ(q.tag, p.tag);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeaderSweep,
                         ::testing::Values(1, 2, 3));

// A packet in flight is copied by value and allocates nothing.
static_assert(std::is_trivially_copyable_v<Packet>);

TEST(Packet, FlitGeometry)
{
    Packet p = Codec::makeReadReq(1, 2, 0x40, 0);
    EXPECT_EQ(p.numFlits(), 1u); // header/tail-only packet
    EXPECT_EQ(p.wireBytes(), 16u);

    p = Codec::makeWriteReq(1, 2, 0x40, 0, 256);
    EXPECT_EQ(p.numFlits(), 17u); // 16 payload flits + 1
    EXPECT_EQ(p.wireBytes(), 272u);

    p = Codec::makeWriteReq(1, 2, 0x40, 0, 1);
    EXPECT_EQ(p.numFlits(), 2u); // padded to a whole flit
}

TEST(Packet, WireRoundTripWithPayload)
{
    Packet p = Codec::makeWriteReq(3, 5, 0xbeef, 7, 100);
    p.dll = 0xcafe;

    const auto wire = encode(p);
    EXPECT_EQ(wire.size(), p.wireBytes());

    Packet q;
    ASSERT_TRUE(decode(wire, q));
    EXPECT_EQ(q.src, p.src);
    EXPECT_EQ(q.dst, p.dst);
    EXPECT_EQ(q.cmd, p.cmd);
    EXPECT_EQ(q.addr, p.addr);
    EXPECT_EQ(q.tag, p.tag);
    EXPECT_EQ(q.dll, p.dll);
    // Payload length recovered in flit-padded form; the payload
    // region itself is zeros.
    EXPECT_EQ(q.payloadBytes, 112u);
    for (std::size_t i = 8; i < 8 + 112; ++i)
        ASSERT_EQ(wire[i], 0u);
}

class WireBitFlip : public ::testing::TestWithParam<int>
{
};

TEST_P(WireBitFlip, CrcCatchesEveryDataBitFlip)
{
    const Packet p = Codec::makeWriteReq(1, 2, 0x1000, 3, 32);
    auto wire = encode(p);

    const int bit = GetParam();
    const auto byte = static_cast<std::size_t>(bit / 8);
    // Every byte — header, payload, CRC, and the DLL word — is
    // protected: the CRC covers the DLL field too, so a flip confined
    // to the retry sequence number cannot pass validation.
    wire[byte] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    Packet q;
    EXPECT_FALSE(decode(wire, q)) << "bit " << bit;
}

INSTANTIATE_TEST_SUITE_P(AllBits, WireBitFlip,
                         ::testing::Range(0, 48 * 8, 7));

TEST(Packet, DecodeRejectsBadSizes)
{
    Packet q;
    EXPECT_FALSE(decode({}, q));
    EXPECT_FALSE(decode(std::vector<std::uint8_t>(8, 0), q));
    EXPECT_FALSE(decode(std::vector<std::uint8_t>(33, 0), q));
    // Length not matching LEN: a valid 2-flit packet truncated.
    const auto wire = encode(Codec::makeWriteReq(0, 1, 0, 0, 16));
    std::vector<std::uint8_t> cut(wire.begin(), wire.begin() + 16);
    EXPECT_FALSE(decode(cut, q));
}

TEST(Packet, TagsRecycleThroughSixBits)
{
    std::uint8_t next = 0;
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(allocTag(next), i);
    EXPECT_EQ(allocTag(next), 0u); // wrapped
}

TEST(Codec, Segmentation)
{
    EXPECT_EQ(packetsFor(0), 1u);
    EXPECT_EQ(packetsFor(256), 1u);
    EXPECT_EQ(packetsFor(257), 2u);
    std::vector<unsigned> sizes;
    forEachSegment(1000, [&](unsigned c) { sizes.push_back(c); });
    EXPECT_EQ(sizes, (std::vector<unsigned>{256, 256, 256, 232}));
    EXPECT_EQ(packetsFor(1000), sizes.size());
    sizes.clear();
    forEachSegment(0, [&](unsigned c) { sizes.push_back(c); });
    EXPECT_EQ(sizes, std::vector<unsigned>{0}); // header-only packet
}

TEST(Codec, LatencyModel)
{
    const Packet small = Codec::makeReadReq(0, 1, 0, 0);
    const Packet big = Codec::makeWriteReq(0, 1, 0, 0, 256);
    EXPECT_EQ(Codec::packetizeCycles(small.numFlits()), 18u + 2u);
    EXPECT_EQ(Codec::packetizeCycles(big.numFlits()), 18u + 2u * 17);
    EXPECT_EQ(flitsFor(0), small.numFlits());
    EXPECT_EQ(flitsFor(256), big.numFlits());
}

/** A lossy in-memory transport between a sender and a receiver. */
class DllFixture : public ::testing::Test
{
  protected:
    DllFixture()
        : sender(eq, owner, 1000, 4, reg.group("tx")),
          receiver(reg.group("rx"))
    {
    }

    /** Deliver the packet to the receiver, corrupting the first
     * @p corrupt_count arrivals. */
    void
    transportTo(const Packet &p, unsigned &arrivals,
                unsigned corrupt_count, unsigned &delivered)
    {
        // The damaged copies lose bit 4 of the image's middle byte.
        std::vector<std::uint32_t> flips;
        if (arrivals < corrupt_count)
            flips.push_back(p.wireBytes() / 2 * 8 + 4);
        ++arrivals;
        std::vector<Packet> out;
        std::optional<Packet> ctrl;
        receiver.onArrive(p, flips, out, ctrl);
        delivered += static_cast<unsigned>(out.size());
        if (ctrl)
            sender.onControl(*ctrl);
    }

    EventQueue eq;
    stats::Registry reg;
    FakeDllOwner owner;
    RetrySender sender;
    RetryReceiver receiver;
};

TEST_F(DllFixture, CleanDeliveryAcksImmediately)
{
    unsigned arrivals = 0, delivered = 0;
    bool acked = false;
    owner.transmit = [&](const Packet &p) {
        transportTo(p, arrivals, 0, delivered);
    };
    owner.acked = [&] { acked = true; };
    sender.send(Codec::makeWriteReq(0, 1, 0x40, 0, 64), nullptr);
    eq.run();
    EXPECT_TRUE(acked);
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(arrivals, 1u);
    EXPECT_DOUBLE_EQ(reg.scalar("tx.dllRetries"), 0.0);
}

TEST_F(DllFixture, CorruptionTriggersNackRetransmit)
{
    unsigned arrivals = 0, delivered = 0;
    bool acked = false;
    owner.transmit = [&](const Packet &p) {
        transportTo(p, arrivals, 2, delivered);
    };
    owner.acked = [&] { acked = true; };
    sender.send(Codec::makeWriteReq(0, 1, 0x40, 1, 64), &acked);
    eq.run();
    EXPECT_TRUE(acked);
    EXPECT_EQ(owner.rec, &acked); // the owner's record comes back
    EXPECT_EQ(owner.attempts, (std::vector<unsigned>{0, 1, 2}));
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(arrivals, 3u); // 2 corrupted + 1 clean
    EXPECT_DOUBLE_EQ(reg.scalar("tx.dllRetries"), 2.0);
    EXPECT_DOUBLE_EQ(reg.scalar("rx.dllCorrupt"), 2.0);
}

TEST_F(DllFixture, TimeoutRetransmitsWhenPacketVanishes)
{
    unsigned attempts = 0;
    unsigned delivered = 0;
    bool acked = false;
    owner.transmit = [&](const Packet &p) {
        // Drop the first transmission entirely.
        if (attempts++ == 0)
            return;
        unsigned arrivals = 1;
        transportTo(p, arrivals, 0, delivered);
    };
    owner.acked = [&] { acked = true; };
    sender.send(Codec::makeSyncMsg(0, 1, 2), nullptr);
    eq.run();
    EXPECT_TRUE(acked);
    EXPECT_EQ(attempts, 2u);
    EXPECT_EQ(delivered, 1u);
}

TEST_F(DllFixture, DuplicateDeliveryIsFiltered)
{
    // Deliver the same packet twice (retransmit after a lost ACK):
    // the receiver must deliver upward only once.
    const Packet p = Codec::makeWriteReq(2, 3, 0x80, 4, 16);
    unsigned delivered = 0;
    bool first_ack_dropped = false;
    owner.transmit = [&](const Packet &wp) {
        std::vector<Packet> out;
        std::optional<Packet> ctrl;
        receiver.onArrive(wp, {}, out, ctrl);
        delivered += static_cast<unsigned>(out.size());
        if (!first_ack_dropped) {
            first_ack_dropped = true; // lose the ACK
            return;
        }
        if (ctrl)
            sender.onControl(*ctrl);
    };
    sender.send(p, nullptr);
    eq.run();
    EXPECT_EQ(delivered, 1u);
    EXPECT_DOUBLE_EQ(reg.scalar("rx.dllDuplicates"), 1.0);
}

TEST_F(DllFixture, PermanentLossExhaustsRetriesAndFails)
{
    bool failed = false;
    unsigned attempts = 0;
    owner.transmit = [&](const Packet &) { ++attempts; };
    owner.acked = [] { FAIL() << "must not ack"; };
    owner.failed = [&] { failed = true; };
    sender.send(Codec::makeSyncMsg(0, 1, 5), &failed);
    eq.run();
    EXPECT_TRUE(failed);
    EXPECT_EQ(owner.rec, &failed);
    EXPECT_EQ(owner.attempts, (std::vector<unsigned>{0, 1, 2, 3, 4}));
    EXPECT_EQ(attempts, 5u); // initial + 4 retries
    EXPECT_DOUBLE_EQ(reg.scalar("tx.dllFailures"), 1.0);
}

} // namespace
} // namespace proto
} // namespace dimmlink
