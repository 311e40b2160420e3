/** @file The op-stream engine (dimm/core_engine.hh) on its own, with
 * no System: a test core kind whose memory system completes each
 * reference after a scripted delay drives the request engine's
 * accounting -- hedge race, deadline abort, stale MSHR slots and
 * exactly-once disposition -- tick by tick. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "dimm/core_engine.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace {

constexpr Tick ns = 1000;
constexpr Tick us = 1000 * ns;

/** Completes the n-th issued reference delays[n] ticks after its
 * issue. One cycle is 1 ns and the window holds four references. */
class ScriptedCore : public CoreEngine
{
  public:
    ScriptedCore(EventQueue &eq, const SystemConfig &cfg,
                 stats::Registry &reg, std::vector<Tick> delays)
        : CoreEngine(eq, "core", 1000.0, Pace{1.0, 1.0, 4}, cfg,
                     /*fabric=*/nullptr, /*my_host=*/0, reg),
          delays(std::move(delays))
    {}

    /** Issue tick of each reference, in issue order. */
    std::vector<Tick> issuedAt;

  private:
    void
    issueRef(const MemRef &) override
    {
        const Tick delay = delays.at(issuedAt.size());
        issuedAt.push_back(now());
        queue().scheduleIn(delay, expectResponse(false),
                           EventPriority::Delivery);
    }

    void
    arriveBarrier(std::function<void()> release) override
    {
        queue().scheduleIn(0, std::move(release), EventPriority::Core);
    }

    void
    broadcast(Addr, std::uint64_t, EventCallback done) override
    {
        queue().scheduleIn(0, std::move(done), EventPriority::Core);
    }

    std::vector<Tick> delays;
};

class ScriptProgram : public ThreadProgram
{
  public:
    explicit ScriptProgram(std::vector<Op> ops) : ops(std::move(ops)) {}

    Op
    next() override
    {
        return i < ops.size() ? ops[i++] : Op::done();
    }

  private:
    std::vector<Op> ops;
    std::size_t i = 0;
};

std::vector<MemRef>
refs(unsigned n)
{
    return std::vector<MemRef>(n, MemRef{});
}

TEST(CoreEngine, DeadlineAbortAfterAHedgeRaceDisposesOnceAndDrainsStale)
{
    SystemConfig cfg;
    cfg.serve.deadlineUs = 2.5;
    cfg.serve.hedgeAfterUs = 0.2;
    EventQueue eq;
    stats::Registry reg;
    // Issue order: primaries A B, hedge C D, E, the full-window batch
    // F G H I, then J.
    ScriptedCore core(eq, cfg, reg,
                      {3 * us, 3 * us, 100 * ns, 100 * ns, 3 * us,
                       5 * us, 5 * us, 5 * us, 5 * us, 100 * ns});
    std::vector<Op> ops;
    // Request 1: the hedge (C D, done at 0.3 us) beats the primaries
    // (A B, due at 3 us), which turn stale. E is then still in flight
    // when the 2.5 us deadline aborts the request and disowns it too.
    ops.push_back(Op::reqStartServe(Op::reqNow, 0, -1));
    ops.push_back(Op::memHedged(refs(2), refs(2)));
    ops.push_back(Op::mem(refs(1), /*fence=*/true));
    ops.push_back(Op::reqEnd());
    // Four refs fill the whole window, so I issues only once the
    // three stale slots (A B at 3 us, E at 3.3 us) have freed.
    ops.push_back(Op::mem(refs(4), /*fence=*/true));
    // Request 2 completes.
    ops.push_back(Op::reqStartServe(Op::reqNow, 0, -1));
    ops.push_back(Op::mem(refs(1)));
    ops.push_back(Op::reqEnd());

    bool done = false;
    unsigned stale_at_done = ~0u;
    core.run(0, std::make_unique<ScriptProgram>(std::move(ops)), [&] {
        done = true;
        stale_at_done = core.staleResponses();
    });
    unsigned stale_max = 0;
    while (eq.step())
        stale_max = std::max(stale_max, core.staleResponses());

    ASSERT_TRUE(done);
    EXPECT_FALSE(core.busy());
    ASSERT_EQ(core.issuedAt.size(), 10u);
    EXPECT_EQ(stale_max, 3u);
    // Stale slots still occupy the window: G waits for A and B to
    // land, and I for E.
    EXPECT_GE(core.issuedAt[6], core.issuedAt[0] + 3 * us);
    EXPECT_GE(core.issuedAt[8], core.issuedAt[4] + 3 * us);
    EXPECT_EQ(stale_at_done, 0u);
    EXPECT_DOUBLE_EQ(reg.scalar("core.reqHedges"), 1.0);
    EXPECT_DOUBLE_EQ(reg.scalar("core.reqHedgeWins"), 1.0);
    EXPECT_DOUBLE_EQ(reg.scalar("core.reqDeadlineMisses"), 1.0);
    EXPECT_DOUBLE_EQ(reg.scalar("core.requests"), 1.0);
    // Each of the two requests is disposed of exactly once.
    EXPECT_DOUBLE_EQ(reg.scalar("core.requests") +
                         reg.scalar("core.reqDeadlineMisses") +
                         reg.scalar("core.reqShed") +
                         reg.scalar("core.reqFailed"),
                     2.0);
    EXPECT_EQ(reg.group("core").histograms().at("reqLatencyPs").total(),
              1u);
}

} // namespace
} // namespace dimmlink
