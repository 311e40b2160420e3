/** @file DRAM substrate tests: timing presets, address mapping, bank
 * state machine legality, and controller behaviour. */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "common/stats.hh"
#include "dram/address_map.hh"
#include "dram/bank.hh"
#include "dram/dram_controller.hh"
#include "dram/timing.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace dram {
namespace {

TEST(Timing, Ddr4Preset)
{
    const Timing t = Timing::preset("DDR4_2400");
    EXPECT_EQ(t.clkPeriod(), 833u); // 1200 MHz -> 833 ps
    EXPECT_EQ(t.banksPerRank(), 16u);
    EXPECT_GT(t.tRC, t.tRAS);
    EXPECT_GE(t.tRRDl, t.tRRDs);
    EXPECT_GE(t.tCCDl, t.tCCDs);
}

TEST(Timing, UnknownPresetDiesListingRegisteredOnes)
{
    // The preset table rejects unknown names and says what it knows, so a
    // typo is a one-round-trip fix.
    EXPECT_EXIT(Timing::preset("DDR9"), ::testing::ExitedWithCode(1),
                "unknown DRAM timing preset 'DDR9'.*DDR4_2400");
}

TEST(Timing, EveryRegisteredPresetRoundTrips)
{
    const auto names = Timing::presets();
    EXPECT_GE(names.size(), 6u);
    for (const auto &n : names) {
        const Timing t = Timing::preset(n);
        EXPECT_EQ(t.name, n);
        t.check(); // registered tables must be self-consistent
        EXPECT_GT(t.banksPerRank(), 0u);
        EXPECT_GE(t.subChannels, 1u);
        if (t.perBankRefresh) {
            EXPECT_GT(t.tRFCpb, 0u);
        }
    }
}

TEST(GlobalMap, RoundTrips)
{
    GlobalAddressMap map(16, 1ull << 34); // 16 GB per DIMM
    for (DimmId d : {0, 3, 15}) {
        for (Addr local : {0ull, 4096ull, (1ull << 34) - 64}) {
            const Addr g = map.globalOf(static_cast<DimmId>(d),
                                        local);
            EXPECT_EQ(map.dimmOf(g), d);
            EXPECT_EQ(map.localOf(g), local);
        }
    }
}

TEST(GlobalMap, DimmsOwnDisjointRegions)
{
    GlobalAddressMap map(4, 1ull << 30);
    EXPECT_LT(map.globalOf(0, (1ull << 30) - 1), map.globalOf(1, 0));
    EXPECT_LT(map.globalOf(2, (1ull << 30) - 1), map.globalOf(3, 0));
}

TEST(LocalMap, CoversAllCoordinates)
{
    const Timing t = Timing::preset("DDR4_2400");
    LocalAddressMap map(t, 2, 64);
    // Consecutive lines rotate through bank groups first.
    const DramCoord c0 = map.decode(0);
    const DramCoord c1 = map.decode(64);
    EXPECT_NE(c0.bankGroup, c1.bankGroup);
    EXPECT_EQ(c0.row, c1.row);

    // Sweep a region and check bounds.
    for (Addr a = 0; a < (1ull << 22); a += 4096 + 64) {
        const DramCoord c = map.decode(a);
        EXPECT_LT(c.rank, 2u);
        EXPECT_LT(c.bankGroup, t.bankGroups);
        EXPECT_LT(c.bank, t.banksPerGroup);
        EXPECT_LT(c.row, t.rows);
        EXPECT_LT(c.flatBank(t), 2 * t.banksPerRank());
    }
}

TEST(Bank, ActivateThenCasThenPrechargeTimings)
{
    const Timing t = Timing::preset("DDR4_2400");
    Bank b;
    EXPECT_FALSE(b.isOpen());
    b.activate(0, 7, t);
    EXPECT_TRUE(b.isOpen());
    EXPECT_EQ(b.openRow(), 7u);
    // CAS must wait tRCD.
    EXPECT_EQ(b.readyAt(DramCmd::Rd), t.cyc(t.tRCD));
    // PRE must wait tRAS.
    EXPECT_EQ(b.readyAt(DramCmd::Pre), t.cyc(t.tRAS));
    b.read(t.cyc(t.tRCD), t);
    b.precharge(t.cyc(t.tRAS), t);
    EXPECT_FALSE(b.isOpen());
    // Next ACT waits tRC from the first.
    EXPECT_GE(b.readyAt(DramCmd::Act), t.cyc(t.tRC));
}

TEST(BankDeath, IllegalCommandsPanic)
{
    const Timing t = Timing::preset("DDR4_2400");
    Bank b;
    EXPECT_DEATH(b.read(0, t), "closed bank");
    EXPECT_DEATH(b.precharge(0, t), "closed bank");
    b.activate(0, 1, t);
    EXPECT_DEATH(b.activate(t.cyc(2), 2, t), "open bank");
    EXPECT_DEATH(b.read(t.cyc(1), t), "before");
}

/** Fixture with one single-rank controller. */
class ControllerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        timing = Timing::preset("DDR4_2400");
        ctrl = std::make_unique<DramController>(
            eq, "ctl", timing, 1, 64, reg.group("ctl"));
    }

    /** Issue a read and run until it completes; return latency. */
    Tick
    readLatency(Addr a)
    {
        const Tick start = eq.now();
        Tick done_at = 0;
        bool done = false;
        DramRequest req;
        req.local = a;
        req.done = [&] {
            done = true;
            done_at = eq.now();
        };
        EXPECT_TRUE(ctrl->enqueue(std::move(req)));
        while (!done && eq.step()) {
        }
        EXPECT_TRUE(done);
        return done_at - start;
    }

    EventQueue eq;
    stats::Registry reg;
    Timing timing;
    std::unique_ptr<DramController> ctrl;
};

TEST_F(ControllerTest, ColdReadPaysActPlusCasPlusBurst)
{
    const Tick lat = readLatency(0);
    const Tick ideal =
        timing.cyc(timing.tRCD + timing.tCL + timing.tBL);
    EXPECT_GE(lat, ideal);
    // Scheduling slack should stay within a few command clocks.
    EXPECT_LE(lat, ideal + timing.cyc(4));
}

TEST_F(ControllerTest, RowHitIsFasterThanRowMiss)
{
    const Tick cold = readLatency(0);
    const Tick hit = readLatency(64 * 16); // same bank group 0? ...
    // Same row, same bank: line + bg/bank bits stride.
    // Address 0 and 0 + (lines covering all banks) share row 0 of
    // bank 0 when the full bank rotation wraps.
    (void)cold;
    const Tick conflict =
        readLatency(1ull << 22); // far away: different row, bank 0
    EXPECT_LE(hit, conflict);
}

TEST_F(ControllerTest, BankParallelismBeatsSerialAccess)
{
    // Two reads to different bank groups should overlap: total time
    // well under 2x a single cold read.
    Tick single = readLatency(1ull << 30);

    unsigned done = 0;
    const Tick start = eq.now();
    for (int i = 0; i < 2; ++i) {
        DramRequest req;
        req.local = static_cast<Addr>(i) * 64 + (1ull << 20);
        req.done = [&] { ++done; };
        ASSERT_TRUE(ctrl->enqueue(std::move(req)));
    }
    while (done < 2 && eq.step()) {
    }
    EXPECT_EQ(done, 2u);
    EXPECT_LT(eq.now() - start, 2 * single);
}

TEST_F(ControllerTest, WriteCompletes)
{
    bool done = false;
    DramRequest req;
    req.local = 4096;
    req.isWrite = true;
    req.done = [&] { done = true; };
    ASSERT_TRUE(ctrl->enqueue(std::move(req)));
    while (!done && eq.step()) {
    }
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(reg.scalar("ctl.writes"), 1.0);
}

TEST_F(ControllerTest, ReadAfterWriteForwardsFromWriteQueue)
{
    bool wr_done = false, rd_done = false;
    DramRequest wr;
    wr.local = 8192;
    wr.isWrite = true;
    wr.done = [&] { wr_done = true; };
    ASSERT_TRUE(ctrl->enqueue(std::move(wr)));

    DramRequest rd;
    rd.local = 8192;
    rd.done = [&] { rd_done = true; };
    ASSERT_TRUE(ctrl->enqueue(std::move(rd)));
    // The read is served by forwarding: it completes even though the
    // write may still be queued.
    while ((!rd_done || !wr_done) && eq.step()) {
    }
    EXPECT_TRUE(rd_done);
    EXPECT_TRUE(wr_done);
}

TEST_F(ControllerTest, WriteCoalescingRetiresOlderWrite)
{
    unsigned done = 0;
    for (int i = 0; i < 2; ++i) {
        DramRequest wr;
        wr.local = 12288;
        wr.isWrite = true;
        wr.done = [&] { ++done; };
        ASSERT_TRUE(ctrl->enqueue(std::move(wr)));
    }
    while (done < 2 && eq.step()) {
    }
    EXPECT_EQ(done, 2u);
    // Only one write actually hit the DRAM array.
    EXPECT_DOUBLE_EQ(reg.scalar("ctl.writes"), 1.0);
}

TEST_F(ControllerTest, BackpressureAndUnblockCallback)
{
    bool unblocked = false;
    ctrl->setUnblockCallback([&] { unblocked = true; });
    unsigned done = 0;
    unsigned accepted = 0;
    for (unsigned i = 0; i < 200; ++i) {
        DramRequest req;
        req.local = static_cast<Addr>(i) * 8192;
        req.done = [&] { ++done; };
        if (!ctrl->enqueue(std::move(req)))
            break;
        ++accepted;
    }
    EXPECT_EQ(accepted, ctrl->readQueueCapacity());
    // The refresh machinery reschedules forever: step until drained.
    while (done < accepted && eq.step()) {
    }
    EXPECT_EQ(done, accepted);
    EXPECT_TRUE(unblocked);
}

TEST_F(ControllerTest, RefreshHappens)
{
    // Run the queue long enough to cross a tREFI boundary.
    bool done = false;
    DramRequest req;
    req.local = 0;
    req.done = [&] { done = true; };
    ASSERT_TRUE(ctrl->enqueue(std::move(req)));
    eq.runUntil(timing.cyc(timing.tREFI) + timing.cyc(1000));
    EXPECT_TRUE(done);
    EXPECT_GE(reg.scalar("ctl.refreshes"), 1.0);
}

class ControllerRandomTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ControllerRandomTest, AllRandomRequestsComplete)
{
    EventQueue eq;
    stats::Registry reg;
    const Timing timing = Timing::preset("DDR4_2400");
    DramController ctrl(eq, "ctl", timing, 2, 64,
                        reg.group("ctl"));
    Rng rng(GetParam());

    constexpr unsigned total = 400;
    unsigned submitted = 0, done = 0;
    std::function<void()> submit_some = [&] {
        while (submitted < total) {
            DramRequest req;
            req.local = rng.below(1ull << 26) & ~Addr(63);
            req.isWrite = rng.chance(0.4);
            req.done = [&] { ++done; };
            if (!ctrl.enqueue(std::move(req)))
                return;
            ++submitted;
        }
    };
    ctrl.setUnblockCallback(submit_some);
    submit_some();
    // Cap at 20 refresh intervals to catch hangs.
    eq.runUntil(timing.cyc(timing.tREFI) * 20);
    EXPECT_EQ(done, total);
    EXPECT_EQ(reg.scalar("ctl.reads") + reg.scalar("ctl.writes") +
                  0,
              ctrl.pending() == 0 ? reg.scalar("ctl.reads") +
                                        reg.scalar("ctl.writes")
                                  : -1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerRandomTest,
                         ::testing::Values(1, 2, 3, 17, 99));

// ---- cross-standard behaviour -----------------------------------------

/** Latency of a read to bank-group 1 issued one cycle after the first
 * refresh command of @p t lands. */
Tick
latencyDuringRefresh(const Timing &t)
{
    EventQueue eq;
    stats::Registry reg;
    DramController ctrl(eq, "ctl", t, 1, 64, reg.group("ctl"));
    eq.runUntil(t.cyc(t.tREFI) + t.cyc(1));
    EXPECT_GE(reg.scalar("ctl.refreshes"), 1.0);
    bool done = false;
    Tick done_at = 0;
    DramRequest req;
    req.local = 64; // decodes to bank-group 1: not the REFsb target
    req.done = [&] {
        done = true;
        done_at = eq.now();
    };
    const Tick start = eq.now();
    EXPECT_TRUE(ctrl.enqueue(std::move(req)));
    while (!done && eq.step()) {
    }
    EXPECT_TRUE(done);
    return done_at - start;
}

TEST(Refresh, PerBankRefreshDoesNotBlockTheRank)
{
    // REFab parks the whole rank for tRFC; REFsb (perBankRefresh)
    // only takes the cursor bank (bank 0 first) out of service, so a
    // read to another bank group proceeds at normal latency.
    Timing ab = Timing::preset("DDR4_2400");
    ab.name = "REFAB_TEST";
    ab.tREFI = 1000;
    ab.tRFC = 800;
    Timing sb = ab;
    sb.name = "REFSB_TEST";
    sb.perBankRefresh = true;
    sb.tRFCpb = 800;
    const Tick lat_ab = latencyDuringRefresh(ab);
    const Tick lat_sb = latencyDuringRefresh(sb);
    EXPECT_GE(lat_ab, ab.cyc(600));
    EXPECT_LT(lat_sb, lat_ab - ab.cyc(400));
}

/** Time for eight cold reads, one per bank, to all complete. */
Tick
eightColdReadsTime(const Timing &t)
{
    EventQueue eq;
    stats::Registry reg;
    DramController ctrl(eq, "ctl", t, 1, 64, reg.group("ctl"));
    unsigned done = 0;
    for (int i = 0; i < 8; ++i) {
        DramRequest req;
        req.local = static_cast<Addr>(i) * 64; // distinct banks
        req.done = [&] { ++done; };
        EXPECT_TRUE(ctrl.enqueue(std::move(req)));
    }
    while (done < 8 && eq.step()) {
    }
    EXPECT_EQ(done, 8u);
    return eq.now();
}

TEST(Controller, FourActivateWindowThrottlesActs)
{
    // tFAW == 0 disables the window entirely; a wide window must slow
    // a burst of activates to distinct banks.
    Timing windowless = Timing::preset("DDR4_2400");
    windowless.name = "NOFAW_TEST";
    windowless.tFAW = 0;
    Timing tight = Timing::preset("DDR4_2400");
    tight.name = "FAW_TEST";
    tight.tFAW = 200; // far wider than 4 x tRRD_S
    EXPECT_GT(eightColdReadsTime(tight),
              eightColdReadsTime(windowless));
}

TEST(Controller, GrouplessTimingCollapsesTheLSSplit)
{
    // bankGroups == 0 (LPDDR-style flat bank space) must drive the
    // same controller: the decode has no group bits and the tCCD/tRRD
    // L-variant constraints are skipped.
    Timing t = Timing::preset("DDR4_2400");
    t.name = "FLAT_TEST";
    t.bankGroups = 0;
    t.banksPerGroup = 16;
    t.check();
    EXPECT_FALSE(t.hasBankGroups());
    EXPECT_EQ(t.banksPerRank(), 16u);

    LocalAddressMap map(t, 1, 64);
    const DramCoord c1 = map.decode(64);
    EXPECT_EQ(c1.bankGroup, 0u); // zero-width field decodes to 0
    EXPECT_EQ(c1.bank, 1u);      // lines rotate over flat banks

    EventQueue eq;
    stats::Registry reg;
    DramController ctrl(eq, "ctl", t, 1, 64, reg.group("ctl"));
    unsigned done = 0;
    for (unsigned i = 0; i < 64; ++i) {
        DramRequest req;
        req.local = static_cast<Addr>(i) * 8192;
        req.isWrite = (i % 3) == 0;
        req.done = [&] { ++done; };
        ASSERT_TRUE(ctrl.enqueue(std::move(req)));
    }
    while (done < 64 && eq.step()) {
    }
    EXPECT_EQ(done, 64u);
}

/** Digest of a fixed random-traffic run against one preset. */
struct RunDigest
{
    Tick end = 0;
    double reads = 0, writes = 0, acts = 0, refreshes = 0;

    bool
    operator==(const RunDigest &o) const
    {
        return end == o.end && reads == o.reads &&
               writes == o.writes && acts == o.acts &&
               refreshes == o.refreshes;
    }
};

RunDigest
randomRun(const std::string &preset, std::uint64_t seed)
{
    EventQueue eq;
    stats::Registry reg;
    const Timing timing = Timing::preset(preset);
    DramController ctrl(eq, "ctl", timing, 2, 64, reg.group("ctl"));
    Rng rng(seed);

    constexpr unsigned total = 400;
    unsigned submitted = 0, done = 0;
    Tick last_done = 0;
    std::function<void()> submit_some = [&] {
        while (submitted < total) {
            DramRequest req;
            req.local = rng.below(1ull << 26) & ~Addr(63);
            req.isWrite = rng.chance(0.4);
            req.done = [&] {
                ++done;
                last_done = eq.now();
            };
            if (!ctrl.enqueue(std::move(req)))
                return;
            ++submitted;
        }
    };
    ctrl.setUnblockCallback(submit_some);
    submit_some();
    eq.runUntil(Tick(200'000'000)); // 200 us covers every standard
    EXPECT_EQ(done, total) << preset;

    RunDigest d;
    d.end = last_done;
    d.reads = reg.scalar("ctl.reads");
    d.writes = reg.scalar("ctl.writes");
    d.acts = reg.scalar("ctl.activates");
    d.refreshes = reg.scalar("ctl.refreshes");
    return d;
}

class ControllerStandardTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ControllerStandardTest, RandomTrafficCompletesDeterministically)
{
    // Every registered standard must (a) complete mixed random
    // traffic — exercising its own constraint set: sub-channel lanes,
    // REFsb, no-window, groupless decode — and (b) be bit-repeatable
    // run-to-run under a pinned seed.
    const RunDigest a = randomRun(GetParam(), 42);
    const RunDigest b = randomRun(GetParam(), 42);
    EXPECT_TRUE(a == b) << GetParam();
    EXPECT_GT(a.reads + a.writes, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Standards, ControllerStandardTest,
                         ::testing::Values("DDR4_2400", "DDR4_3200",
                                           "DDR5_4800", "DDR5_6400",
                                           "LPDDR5X_8533",
                                           "HBM2_2000"));

} // namespace
} // namespace dram
} // namespace dimmlink
