/** @file DIMM-module tests: the Local MC path and the NMP core's op
 * execution (MSHRs, fences, stall attribution). */

#include <gtest/gtest.h>

#include <deque>

#include "common/config.hh"
#include "system/system.hh"
#include "workloads/op_stream.hh"

namespace dimmlink {
namespace {

/** A canned program fed from a deque of ops. */
class ScriptProgram : public ThreadProgram
{
  public:
    explicit ScriptProgram(std::deque<Op> ops) : ops(std::move(ops))
    {
    }

    Op
    next() override
    {
        if (ops.empty())
            return Op::done();
        Op op = std::move(ops.front());
        ops.pop_front();
        return op;
    }

  private:
    std::deque<Op> ops;
};

class DimmFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto cfg = SystemConfig::preset("4D-2C");
        sys = std::make_unique<System>(cfg);
    }

    /** Run a script on core 0 of DIMM 0 and return the duration. */
    Tick
    runScript(std::deque<Op> ops)
    {
        sys->enterNmpMode();
        sys->sync().setParticipants({0});
        bool done = false;
        const Tick start = sys->queue().now();
        sys->dimm(0).core(0).run(
            0, std::make_unique<ScriptProgram>(std::move(ops)),
            [&] { done = true; });
        while (!done && sys->queue().step()) {
        }
        EXPECT_TRUE(done);
        const Tick span = sys->queue().now() - start;
        sys->exitNmpMode();
        return span;
    }

    Addr
    localAddr(DimmId d, Addr off = 0)
    {
        return sys->addressMap().globalOf(d, off);
    }

    std::unique_ptr<System> sys;
};

TEST_F(DimmFixture, ComputeOpTakesInstructionsOverIpc)
{
    // 2000 instructions at IPC 1 on a 2 GHz core = 1 us.
    const Tick t = runScript({Op::compute(2000)});
    EXPECT_GE(t, 1 * tickPerUs);
    EXPECT_LE(t, 1 * tickPerUs + 10 * tickPerNs);
}

TEST_F(DimmFixture, LocalUncachedReadPaysDramLatency)
{
    const Tick t = runScript(
        {Op::read(localAddr(0, 4096), 64, DataClass::SharedRW,
                  true)});
    EXPECT_GT(t, 30 * tickPerNs); // tRCD+tCL+tBL is ~30 ns
    EXPECT_LT(t, 300 * tickPerNs);
}

TEST_F(DimmFixture, CachedRereadsAreFast)
{
    // Two reads of the same private line: second hits L1.
    const Tick together = runScript(
        {Op::read(localAddr(0, 8192), 64, DataClass::Private, true),
         Op::read(localAddr(0, 8192), 64, DataClass::Private,
                  true)});
    const Tick single = runScript({Op::read(localAddr(0, 16384), 64,
                                            DataClass::Private,
                                            true)});
    EXPECT_LT(together, 2 * single);
    EXPECT_GT(sys->stats().scalar("dimm0.core0.l1.hits"), 0.0);
}

TEST_F(DimmFixture, RemoteReadIsCountedAsRemoteStall)
{
    runScript({Op::read(localAddr(3, 0), 64, DataClass::SharedRW,
                        true)});
    EXPECT_GT(sys->stats().scalar("dimm0.core0.stallRemotePs"),
              0.0);
    EXPECT_DOUBLE_EQ(sys->stats().scalar("dimm0.core0.remoteRefs"),
                     1.0);
    EXPECT_DOUBLE_EQ(sys->stats().scalar("dimm0.mc.remoteReads"),
                     1.0);
}

TEST_F(DimmFixture, MshrWindowOverlapsRequests)
{
    // 16 independent uncached reads with a fence: with 16 MSHRs they
    // overlap, so the total is far less than 16 serial accesses.
    std::vector<MemRef> refs;
    for (unsigned i = 0; i < 16; ++i)
        refs.push_back(MemRef{localAddr(0, 65536 + i * 8192), 64,
                              false, DataClass::SharedRW});
    const Tick batch = runScript({Op::mem(refs, true)});
    const Tick single = runScript(
        {Op::read(localAddr(0, 1 << 20), 64, DataClass::SharedRW,
                  true)});
    EXPECT_LT(batch, 8 * single);
}

TEST_F(DimmFixture, RankParallelismSpreadsLines)
{
    // Consecutive lines alternate ranks (2 ranks per DIMM).
    std::vector<MemRef> refs;
    for (unsigned i = 0; i < 8; ++i)
        refs.push_back(MemRef{localAddr(0, i * 64), 64, false,
                              DataClass::SharedRW});
    runScript({Op::mem(refs, true)});
    EXPECT_GT(sys->stats().scalar("dimm0.mc.rank0.reads"), 0.0);
    EXPECT_GT(sys->stats().scalar("dimm0.mc.rank1.reads"), 0.0);
}

TEST_F(DimmFixture, BroadcastOpCompletes)
{
    runScript({Op::broadcast(localAddr(0, 0), 4096)});
    EXPECT_DOUBLE_EQ(sys->stats().scalar("dimm0.core0.broadcasts"),
                     1.0);
    EXPECT_GT(sys->stats().scalar("fabric.dl.broadcasts"), 0.0);
}

TEST_F(DimmFixture, ZeroByteAccessCompletesAtOnce)
{
    // A zero-byte span touches no DRAM and completes at now(), from
    // the core side and from the fabric side alike. A line-aligned
    // one used to compute its last line below its first, enqueue
    // nothing and never complete.
    LocalMc &mc = sys->dimm(0).localMc();
    const Tick start = sys->queue().now();
    unsigned done = 0;
    mc.access(localAddr(0, 64), 0, /*is_write=*/false, [&] { ++done; });
    mc.remoteAccess(128, 0, /*is_write=*/true, [&] { ++done; });
    sys->queue().runUntil(start);
    EXPECT_EQ(done, 2u);
    EXPECT_TRUE(mc.idle());
}

TEST_F(DimmFixture, CancelStopsTheThread)
{
    sys->enterNmpMode();
    sys->sync().setParticipants({0});
    bool done = false;
    sys->dimm(0).core(0).run(
        0,
        std::make_unique<ScriptProgram>(
            std::deque<Op>{Op::compute(1000000)}),
        [&] { done = true; });
    sys->queue().runUntil(sys->queue().now() + 10 * tickPerNs);
    EXPECT_TRUE(sys->dimm(0).core(0).busy());
    sys->dimm(0).core(0).cancel();
    EXPECT_FALSE(sys->dimm(0).core(0).busy());
    sys->queue().runUntil(sys->queue().now() + 2 * tickPerMs);
    EXPECT_FALSE(done); // the cancelled thread never completes
    sys->exitNmpMode();
}

TEST_F(DimmFixture, FlushAfterKernel)
{
    runScript({Op::read(localAddr(0, 4096), 64, DataClass::Private,
                        true)});
    // exitNmpMode() flushed the caches.
    EXPECT_FALSE(sys->dimm(0).l2Cache().probe(4096));
}

} // namespace
} // namespace dimmlink
