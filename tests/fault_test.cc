/** @file Fault-injection layer and DLL retry-path hardening: the
 * deterministic fault models, the LEN-derived NACK tail read, sender
 * window backpressure, dedup past the 16-bit sequence wrap, an
 * exactly-once/in-order chaos property test, and whole-system runs
 * with a nonzero bit-error rate. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/stats_json.hh"
#include "fault/fault_model.hh"
#include "obs/tracer.hh"
#include "proto/codec.hh"
#include "proto/dll.hh"
#include "sim/event_queue.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

#include "fake_dll_owner.hh"

namespace dimmlink {
namespace {

using proto::DlCommand;
using proto::Packet;

// ---------------------------------------------------------------------
// Fault models.
// ---------------------------------------------------------------------

TEST(FaultModel, StreamSeedsAreStableAndDecorrelated)
{
    const auto a = fault::streamSeed(1, "fabric.dl.group0.link0to1");
    const auto b = fault::streamSeed(1, "fabric.dl.group0.link1to0");
    const auto c = fault::streamSeed(2, "fabric.dl.group0.link0to1");
    EXPECT_NE(a, b); // distinct links -> distinct streams
    EXPECT_NE(a, c); // distinct base seeds -> distinct streams
    EXPECT_EQ(a, fault::streamSeed(1, "fabric.dl.group0.link0to1"));
}

TEST(FaultModel, FactoryKnowsAllModelsAndFilterGates)
{
    FaultConfig cfg;
    for (const char *m : {"ber", "degrade", "stuck"}) {
        cfg.model = m;
        EXPECT_NE(fault::makeModel(cfg, 1), nullptr) << m;
    }
    cfg.model = "none";
    EXPECT_EQ(fault::makeModel(cfg, 1), nullptr);
    EXPECT_EQ(fault::makeFaultModel(cfg, "any.link"), nullptr);

    cfg.model = "ber";
    cfg.linkFilter = "group1";
    EXPECT_EQ(fault::makeFaultModel(cfg, "fabric.dl.group0.link0to1"),
              nullptr);
    EXPECT_NE(fault::makeFaultModel(cfg, "fabric.dl.group1.link0to1"),
              nullptr);
    cfg.linkFilter.clear();
    EXPECT_NE(fault::makeFaultModel(cfg, "fabric.dl.group0.link0to1"),
              nullptr);
}

TEST(FaultModelDeathTest, UnknownModelFatalsListingValidOnes)
{
    FaultConfig faults;
    faults.model = "burst";
    EXPECT_EXIT(fault::makeModel(faults, 1), ::testing::ExitedWithCode(1),
                "unknown fault model 'burst' \\(registered: ber, "
                "degrade, none, stuck\\)");
    // validate() rejects the name before any link is built.
    SystemConfig cfg = SystemConfig::preset("4D-2C");
    cfg.faults.model = "burst";
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "unknown fault model 'burst'");
}

TEST(FaultModel, BerFlipsRealBitsDeterministically)
{
    FaultConfig cfg;
    cfg.model = "ber";
    cfg.ber = 0.01;
    constexpr unsigned bits = 2048;
    const auto run = [&cfg](std::uint64_t seed) {
        auto model = fault::makeModel(cfg, seed);
        std::vector<std::uint32_t> flips;
        noc::Message msg;
        msg.flips = &flips;
        const auto eff = model->onTransmit(0, bits, msg);
        return std::make_pair(flips, eff.corrupted);
    };
    const auto [f1, c1] = run(42);
    const auto [f2, c2] = run(42);
    const auto [f3, c3] = run(43);
    EXPECT_EQ(f1, f2); // same stream seed -> identical damage
    EXPECT_EQ(c1, c2);
    EXPECT_NE(f1, f3); // different seed -> different damage
    // With 2048 bits at 1% BER, damage is (deterministically) present
    // and the corrupted flag reflects it. Positions are recorded in
    // wire order, each inside the transmission.
    EXPECT_TRUE(c1);
    ASSERT_FALSE(f1.empty());
    EXPECT_TRUE(std::is_sorted(f1.begin(), f1.end()));
    for (const std::uint32_t bit : f1)
        EXPECT_LT(bit, bits);
}

TEST(FaultModel, CorruptedWireImageFailsCrc)
{
    FaultConfig cfg;
    cfg.model = "ber";
    cfg.ber = 0.02;
    auto model = fault::makeModel(cfg, 7);
    Packet p = proto::Codec::makeWriteReq(0, 1, 0x40, 3, 64);
    std::vector<std::uint8_t> image = proto::encode(p);
    std::vector<std::uint32_t> flips;
    noc::Message msg;
    msg.flips = &flips;
    // Find a transmission the model damages (deterministic stream).
    while (!msg.corrupted)
        model->onTransmit(0, p.numFlits() * proto::flitBytes * 8, msg);
    ASSERT_FALSE(flips.empty());
    for (const std::uint32_t bit : flips)
        image[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    Packet q;
    EXPECT_FALSE(proto::decode(image, q));

    // The receiver reaches the same verdict from the flip list.
    stats::Registry reg;
    proto::RetryReceiver rx(reg.group("rx"));
    std::vector<Packet> out;
    std::optional<Packet> ctrl;
    rx.onArrive(p, flips, out, ctrl);
    EXPECT_TRUE(out.empty());
    EXPECT_DOUBLE_EQ(reg.scalar("rx.dllCorrupt"), 1.0);
}

TEST(FaultModel, DegradeScalesSerializationTime)
{
    FaultConfig cfg;
    cfg.model = "degrade";
    cfg.degradeFactor = 0.5;
    auto model = fault::makeModel(cfg, 1);
    noc::Message msg;
    const auto eff = model->onTransmit(0, 128, msg);
    EXPECT_DOUBLE_EQ(eff.serScale, 2.0); // half rate -> double time
    EXPECT_FALSE(eff.corrupted);
    EXPECT_EQ(eff.stallPs, 0u);
}

TEST(FaultModel, StuckLinkStallsDuringOutages)
{
    FaultConfig cfg;
    cfg.model = "stuck";
    cfg.stuckAtPs = 1000;
    cfg.stuckForPs = 500;
    cfg.stuckPeriodPs = 2000;
    auto model = fault::makeModel(cfg, 1);
    noc::Message msg;
    EXPECT_EQ(model->onTransmit(0, 128, msg).stallPs, 0u);
    EXPECT_EQ(model->onTransmit(1200, 128, msg).stallPs, 300u);
    EXPECT_EQ(model->onTransmit(1600, 128, msg).stallPs, 0u);
    // The outage repeats every period.
    EXPECT_EQ(model->onTransmit(3200, 128, msg).stallPs, 300u);
}

TEST(FaultModel, OnlyTheNamedModelActs)
{
    // Every model's keys hold active values; only the one faults.model
    // names may touch the transmission.
    FaultConfig cfg;
    cfg.ber = 0.05;
    cfg.degradeFactor = 0.5;
    cfg.stuckAtPs = 0;
    cfg.stuckForPs = 1000;
    cfg.stuckPeriodPs = 0;
    for (const char *m : {"ber", "degrade", "stuck"}) {
        cfg.model = m;
        auto model = fault::makeModel(cfg, 1);
        std::vector<std::uint32_t> flips;
        noc::Message msg;
        msg.flips = &flips;
        const auto eff = model->onTransmit(100, 2048, msg);
        const std::string name = m;
        EXPECT_EQ(eff.corrupted, name == "ber") << m;
        EXPECT_EQ(msg.corrupted, name == "ber") << m;
        EXPECT_EQ(!flips.empty(), name == "ber") << m;
        EXPECT_DOUBLE_EQ(eff.serScale, name == "degrade" ? 2.0 : 1.0)
            << m;
        EXPECT_EQ(eff.stallPs, name == "stuck" ? Tick{900} : Tick{0})
            << m;
    }
}

// ---------------------------------------------------------------------
// makeNack regression: the DLL tail sits behind the payload.
// ---------------------------------------------------------------------

TEST(DllNack, NackReadsSequenceBehindThePayload)
{
    EventQueue eq;
    stats::Registry reg;
    proto::RetryReceiver rx(reg.group("rx"));

    Packet p = proto::Codec::makeWriteReq(2, 5, 0x80, 9, 64);
    p.dll = 0x1234; // a nonzero sequence so offset bugs are visible
    // Damage a payload bit (byte 20): the header (and LEN) stay
    // readable, so the receiver can NACK with the genuine sequence
    // number read from behind the payload. The fixed-offset-12 bug
    // read payload bytes here instead.
    const std::vector<std::uint32_t> flips{20 * 8};

    std::vector<Packet> out;
    std::optional<Packet> ctrl;
    rx.onArrive(p, flips, out, ctrl);
    EXPECT_TRUE(out.empty());
    ASSERT_TRUE(ctrl.has_value());
    EXPECT_EQ(ctrl->cmd, DlCommand::DllNack);
    EXPECT_EQ(ctrl->dll & 0xffff, 0x1234u);
    EXPECT_EQ(ctrl->dst, p.src); // routed back to the sender
    EXPECT_DOUBLE_EQ(reg.scalar("rx.dllCorrupt"), 1.0);
}

TEST(DllNack, UnreadableLenProducesNoNackAndTimeoutRecovers)
{
    EventQueue eq;
    stats::Registry reg;
    proto::RetryReceiver rx(reg.group("rx"));

    Packet p = proto::Codec::makeWriteReq(2, 5, 0x80, 9, 64);
    // Flip a LEN bit (the header's top bit): the claimed payload
    // length no longer matches the image, so any tail offset would be
    // a guess. No control packet may be produced from a garbage
    // offset.
    const std::vector<std::uint32_t> len_hit{63};

    std::vector<Packet> out;
    std::optional<Packet> ctrl;
    rx.onArrive(p, len_hit, out, ctrl);
    EXPECT_TRUE(out.empty());
    EXPECT_FALSE(ctrl.has_value());
    EXPECT_DOUBLE_EQ(reg.scalar("rx.dllCorrupt"), 1.0);

    // The sender-side timeout is the recovery path for such damage.
    FakeDllOwner owner;
    proto::RetrySender tx(eq, owner, 1000, 4, reg.group("tx"));
    unsigned attempts = 0;
    bool acked = false;
    owner.transmit = [&](const Packet &wp) {
        ++attempts;
        // The first copy arrives unreadable.
        const std::vector<std::uint32_t> f =
            attempts == 1 ? len_hit : std::vector<std::uint32_t>{};
        std::vector<Packet> o;
        std::optional<Packet> c;
        rx.onArrive(wp, f, o, c);
        if (c)
            tx.onControl(*c);
    };
    owner.acked = [&] { acked = true; };
    tx.send(p, nullptr);
    eq.run();
    EXPECT_TRUE(acked);
    EXPECT_EQ(attempts, 2u); // one timeout retransmission
}

// ---------------------------------------------------------------------
// Sender window: backpressure instead of the wraparound panic.
// ---------------------------------------------------------------------

TEST(DllWindow, FullWindowQueuesInsteadOfPanicking)
{
    EventQueue eq;
    stats::Registry reg;
    FakeDllOwner owner;
    proto::RetrySender tx(eq, owner, 1000, 0, reg.group("tx"),
                          /*window=*/4);
    std::vector<Packet> sent;
    unsigned failed = 0;
    owner.transmit = [&](const Packet &p) { sent.push_back(p); };
    owner.failed = [&] { ++failed; };
    for (unsigned i = 0; i < 10; ++i) {
        tx.send(proto::Codec::makeSyncMsg(
                    0, 1, static_cast<std::uint8_t>(i & 0x3f)),
                nullptr);
    }
    // Only the window's worth is in flight; the rest are queued.
    EXPECT_EQ(tx.inFlight(), 4u);
    EXPECT_EQ(tx.queued(), 6u);
    EXPECT_EQ(sent.size(), 4u);
    EXPECT_DOUBLE_EQ(reg.scalar("tx.dllBackpressured"), 6.0);

    // Acknowledging the head admits exactly one queued send.
    Packet ack;
    ack.src = 1;
    ack.dst = 0;
    ack.cmd = DlCommand::DllAck;
    ack.dll = sent[0].dll & 0xffff;
    tx.onControl(ack);
    EXPECT_EQ(tx.inFlight(), 4u);
    EXPECT_EQ(tx.queued(), 5u);
    EXPECT_EQ(sent.size(), 5u);

    // Sequence numbers stamped at admission stay dense and ordered.
    for (unsigned i = 0; i < sent.size(); ++i)
        EXPECT_EQ(sent[i].dll & 0xffff, i);
    EXPECT_EQ(failed, 0u);
}

TEST(DllWindow, PerDestinationStreamsAreIndependent)
{
    EventQueue eq;
    stats::Registry reg;
    FakeDllOwner owner;
    proto::RetrySender tx(eq, owner, 1000, 0, reg.group("tx"),
                          /*window=*/2);
    std::vector<Packet> sent;
    owner.transmit = [&](const Packet &p) { sent.push_back(p); };
    for (unsigned i = 0; i < 3; ++i) {
        for (std::uint8_t dst : {1, 2})
            tx.send(proto::Codec::makeSyncMsg(0, dst, 0), nullptr);
    }
    // Each destination fills its own window; neither starves the
    // other, and each stream's sequence space starts at zero.
    EXPECT_EQ(tx.inFlight(), 4u);
    EXPECT_EQ(tx.queued(), 2u);
    std::map<std::uint8_t, std::uint16_t> next;
    for (const Packet &p : sent)
        EXPECT_EQ(p.dll & 0xffff, next[p.dst]++) << unsigned(p.dst);
}

TEST(DllWindow, ConstructorRejectsBadWindows)
{
    EventQueue eq;
    stats::Registry reg;
    FakeDllOwner owner;
    EXPECT_DEATH(
        proto::RetrySender(eq, owner, 1000, 1, reg.group("t0"), 0),
        "window");
    EXPECT_DEATH(proto::RetrySender(
                     eq, owner, 1000, 1, reg.group("t1"),
                     proto::RetrySender::maxWindow + 1),
                 "window");
}

// ---------------------------------------------------------------------
// Dedup soak: the 16-bit sequence space wraps, filtering keeps working.
// ---------------------------------------------------------------------

TEST(DllSoak, DedupAndOrderSurviveSequenceWrap)
{
    EventQueue eq;
    stats::Registry reg;
    FakeDllOwner owner;
    proto::RetrySender tx(eq, owner, 1000, 4, reg.group("tx"));
    proto::RetryReceiver rx(reg.group("rx"));

    constexpr std::uint32_t total = 70000; // > 2^16: seqs wrap
    std::uint32_t next_expected = 0;
    std::uint64_t delivered = 0;
    unsigned acks = 0;

    owner.transmit = [&](const Packet &p) {
        std::vector<Packet> out;
        std::optional<Packet> ctrl;
        rx.onArrive(p, {}, out, ctrl);
        for (const Packet &q : out) {
            // Each packet carries its index in ADDR.
            EXPECT_EQ(q.addr, next_expected);
            ++next_expected;
            ++delivered;
        }
        // Lose every 7th ACK: the timeout retransmits, and the
        // receiver must filter the duplicate while re-ACKing it.
        if (ctrl && ++acks % 7 != 0)
            tx.onControl(*ctrl);
    };

    for (std::uint32_t i = 0; i < total; ++i) {
        const Packet p = proto::Codec::makeWriteReq(
            0, 1, i, static_cast<std::uint8_t>(i & 0x3f), 4);
        tx.send(p, nullptr);
        eq.run(); // drain timers so every packet settles
    }

    EXPECT_EQ(delivered, total); // exactly once, in order
    EXPECT_EQ(tx.inFlight(), 0u);
    EXPECT_EQ(tx.queued(), 0u);
    EXPECT_EQ(rx.bufferedPackets(), 0u); // no reorder-buffer leak
    EXPECT_EQ(rx.trackedSources(), 1u);  // bounded per-source state
    EXPECT_DOUBLE_EQ(reg.scalar("tx.dllSent"),
                     static_cast<double>(total));
    // Every dropped ACK forced one duplicate arrival.
    EXPECT_GT(reg.scalar("rx.dllDuplicates"), 9000.0);
    EXPECT_DOUBLE_EQ(reg.scalar("rx.dllValid"),
                     static_cast<double>(delivered) +
                         reg.scalar("rx.dllDuplicates"));
}

// ---------------------------------------------------------------------
// Chaos property test: any schedule of drops, corruptions, duplicates
// and reorderings yields exactly-once, in-order delivery with no
// state leaked.
// ---------------------------------------------------------------------

class DllChaos : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DllChaos, ExactlyOnceInOrderUnderRandomFaults)
{
    EventQueue eq;
    stats::Registry reg;
    FakeDllOwner owner;
    proto::RetrySender txc(eq, owner, /*timeout=*/3000, /*retries=*/64,
                           reg.group("txc"));
    proto::RetryReceiver rxc(reg.group("rxc"));
    Rng rng(GetParam());

    constexpr std::uint32_t total = 1500;
    std::uint32_t next_expected = 0;
    std::uint32_t delivered = 0;

    std::function<void(const Packet &)> send_control =
        [&](const Packet &ctrl) {
            if (rng.chance(0.05))
                return; // ACK/NACK lost
            eq.scheduleIn(1 + rng.below(400),
                          [&, ctrl] { txc.onControl(ctrl); },
                          EventPriority::Delivery);
        };
    auto arrive = [&](const Packet &p,
                      const std::vector<std::uint32_t> &flips) {
        std::vector<Packet> ready;
        std::optional<Packet> ctrl;
        rxc.onArrive(p, flips, ready, ctrl);
        if (ctrl)
            send_control(*ctrl);
        for (const Packet &q : ready) {
            // Each packet carries its index in ADDR.
            EXPECT_EQ(q.addr, next_expected);
            ++next_expected;
            ++delivered;
        }
    };
    owner.transmit = [&](const Packet &p) {
        const double fate = rng.real();
        if (fate < 0.10)
            return; // dropped in flight
        const unsigned copies = fate < 0.18 ? 2 : 1;
        for (unsigned c = 0; c < copies; ++c) {
            std::vector<std::uint32_t> flips;
            if (rng.chance(0.10)) { // random single-bit damage
                const auto bit = rng.below(8);
                const auto byte = rng.below(p.wireBytes());
                flips.push_back(
                    static_cast<std::uint32_t>(byte * 8 + bit));
            }
            eq.scheduleIn(
                1 + rng.below(400),
                [&, p, f = std::move(flips)] { arrive(p, f); },
                EventPriority::Delivery);
        }
    };

    owner.failed = [] { FAIL() << "retry budget exhausted"; };

    std::uint8_t tag = 0;
    for (std::uint32_t i = 0; i < total; ++i) {
        const Packet p = proto::Codec::makeWriteReq(
            0, 1, i, proto::allocTag(tag), 4);
        txc.send(p, nullptr);
    }
    eq.run();

    EXPECT_EQ(delivered, total);
    EXPECT_EQ(next_expected, total);
    EXPECT_EQ(txc.inFlight(), 0u);
    EXPECT_EQ(txc.queued(), 0u);
    EXPECT_EQ(rxc.bufferedPackets(), 0u);
    EXPECT_DOUBLE_EQ(reg.scalar("txc.dllFailures"), 0.0);
    // The schedule above guarantees losses, so recovery really ran.
    EXPECT_GT(reg.scalar("txc.dllRetries"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DllChaos,
                         ::testing::Values(1, 7, 23, 1234));

// ---------------------------------------------------------------------
// Whole-system runs with fault injection.
// ---------------------------------------------------------------------

struct FaultyRun
{
    std::string json;
    double sent = 0, retries = 0, corrupt = 0, failed = 0;
    /** Trace records by name, for a traced run. */
    std::map<std::string, std::uint64_t> traced;
};

/**
 * Run @p workload (in Fig. 12's broadcast mode when @p broadcast) on
 * 4D-2C DIMM-Link at bit-error rate @p ber; with @p trace the DLL
 * trace category records into the run's tracer.
 */
FaultyRun
runFaultySystem(double ber, std::uint64_t seed,
                const char *workload = "bfs", bool broadcast = false,
                bool trace = false)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.idcMethod = IdcMethod::DimmLink;
    cfg.faults.model = "ber";
    cfg.faults.ber = ber;
    cfg.faults.seed = seed;
    cfg.obs.trace = trace;
    cfg.obs.categories = "dll";
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = 6;
    p.rounds = 2;
    p.broadcastMode = broadcast;
    auto wl = workloads::makeWorkload(workload, p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified);

    FaultyRun out;
    auto s = [&sys](const char *n) {
        return sys.stats().sumScalar("fabric.dl", n);
    };
    out.sent = s("dllSent");
    out.retries = s("dllRetries");
    out.corrupt = s("dllCorrupt");
    out.failed = s("dllFailedTransfers");
    std::ostringstream os;
    stats::dumpJson(sys.stats(), os, /*include_empty=*/true);
    os << "\nkernelTicks=" << r.kernelTicks
       << "\nfinalTick=" << sys.queue().now();
    out.json = os.str();
    if (const obs::Tracer *t = sys.tracer()) {
        for (std::uint32_t trk = 0; trk < t->tracks().size(); ++trk)
            t->forEachRecord(trk, [&](const obs::Record &rec) {
                ++out.traced[t->names()[rec.name]];
            });
    }
    return out;
}

TEST(FaultSystem, BerRunRecoversEveryTransferAndCountsIt)
{
    const FaultyRun r = runFaultySystem(1e-4, 7);
    EXPECT_GT(r.corrupt, 0.0) << "no corruption injected at BER 1e-4";
    EXPECT_GT(r.retries, 0.0) << "corruption seen but never retried";
    EXPECT_DOUBLE_EQ(r.failed, 0.0);
    // The recovery-latency histogram made it into the stats JSON.
    EXPECT_NE(r.json.find("dllRecoveryPs"), std::string::npos);
    EXPECT_NE(r.json.find("histograms"), std::string::npos);
}

TEST(FaultSystem, SameSeedRunsAreByteIdentical)
{
    const std::string a = runFaultySystem(1e-4, 11).json;
    const std::string b = runFaultySystem(1e-4, 11).json;
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

// Under fault injection a group broadcast becomes one reliable DLL
// unicast per destination, each CRC-checked and retried on its own.
TEST(FaultSystem, BroadcastRidesPerDestinationReliableUnicasts)
{
    const FaultyRun r = runFaultySystem(1e-4, 7, "pagerank", true);
    EXPECT_DOUBLE_EQ(r.sent, 72.0);
    EXPECT_DOUBLE_EQ(r.retries, 11.0);
    EXPECT_DOUBLE_EQ(r.corrupt, 10.0);
    EXPECT_DOUBLE_EQ(r.failed, 0.0);
    EXPECT_EQ(r.json, runFaultySystem(1e-4, 7, "pagerank", true).json);
}

// Tracing the DLL leaves the run unchanged, and records one transfer
// span (begin + end) per packet and one instant per retransmission.
TEST(FaultSystem, DllTracingRecordsTransfersAndRetries)
{
    const FaultyRun plain = runFaultySystem(1e-4, 7, "pagerank", true);
    const FaultyRun traced =
        runFaultySystem(1e-4, 7, "pagerank", true, /*trace=*/true);
    EXPECT_EQ(plain.json, traced.json);
    EXPECT_TRUE(plain.traced.empty());
    EXPECT_EQ(traced.traced.at("dllXfer"), 2 * 72u);
    EXPECT_EQ(traced.traced.at("dllRetry"), 11u);
}

} // namespace
} // namespace dimmlink
