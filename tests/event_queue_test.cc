/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); },
                EventPriority::Control);
    eq.schedule(5, [&] { order.push_back(3); },
                EventPriority::Control);
    eq.schedule(5, [&] { order.push_back(1); },
                EventPriority::Delivery);
    eq.schedule(5, [&] { order.push_back(4); }, EventPriority::Core);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayRescheduleThemselves)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> tick = [&] {
        if (++fired < 5)
            eq.scheduleIn(10, tick);
    };
    eq.scheduleIn(10, tick);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueue, DescheduleCancelsAndIsIdempotent)
{
    EventQueue eq;
    bool fired = false;
    const auto id = eq.schedule(10, [&] { fired = true; });
    eq.deschedule(id);
    eq.deschedule(id); // idempotent
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(21, [&] { ++count; });
    eq.runUntil(20);
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(eq.empty());
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1, [&] { ++count; });
    eq.schedule(2, [&] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "before now");
}

TEST(EventQueue, RunUntilAdvancesNowToLimit)
{
    // Regression: callers comparing now() to the limit used to see
    // the tick of the last executed event instead of the limit.
    EventQueue eq;
    bool fired = false;
    eq.schedule(10, [&] { fired = true; });
    EXPECT_EQ(eq.runUntil(100), 100u);
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilWithNoEventsAdvancesNow)
{
    EventQueue eq;
    EXPECT_EQ(eq.runUntil(42), 42u);
    EXPECT_EQ(eq.now(), 42u);
}

TEST(EventQueue, RunUntilDoesNotRewindNow)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.run();
    EXPECT_EQ(eq.runUntil(20), 50u);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueue, DescheduleAcrossWheelLevelsAndSpill)
{
    // Cancel one event in each container: tick 10 shares the current
    // (first) bucket and goes straight to the ready heap, 2^16 lies
    // inside the wheel's reach and 2^30 beyond it, in the spill heap.
    EventQueue eq;
    std::vector<int> order;
    const auto near = eq.schedule(10, [&] { order.push_back(0); });
    const auto mid = eq.schedule(1u << 16, [&] { order.push_back(1); });
    const auto far =
        eq.schedule(Tick(1) << 30, [&] { order.push_back(2); });
    eq.schedule(101, [&] { order.push_back(3); });
    eq.schedule(1u << 17, [&] { order.push_back(4); });
    eq.schedule((Tick(1) << 30) + 1, [&] { order.push_back(5); });
    EXPECT_EQ(eq.size(), 6u);
    eq.deschedule(near);
    eq.deschedule(mid);
    eq.deschedule(far);
    EXPECT_EQ(eq.size(), 3u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{3, 4, 5}));
    EXPECT_EQ(eq.executed(), 3u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunUntilLeavesTheLaterPartOfABucketPending)
{
    // Ticks 1024..1087 share one bucket, which straddles the limit:
    // runUntil moves the whole bucket into the ready heap but fires
    // only what lies at or before the limit.
    EventQueue eq;
    std::vector<Tick> fired;
    const auto record = [&] { fired.push_back(eq.now()); };
    eq.schedule(1080, record);
    eq.schedule(1040, record);
    eq.schedule(1070, record);
    EXPECT_EQ(eq.runUntil(1050), 1050u);
    EXPECT_EQ(fired, (std::vector<Tick>{1040}));
    EXPECT_EQ(eq.size(), 2u);
    // Events scheduled now, between now() and the pending ones, fire
    // first.
    eq.schedule(1060, record);
    eq.schedule(1050, record);
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{1040, 1050, 1060, 1070, 1080}));
}

TEST(EventQueue, StaleIdForRecycledSlotIsNoOp)
{
    // After an event fires, its slot may be recycled; the generation
    // tag in the old id must keep deschedule() from cancelling the
    // slot's new tenant.
    EventQueue eq;
    const auto id1 = eq.schedule(1, [] {});
    eq.run();
    bool fired = false;
    const auto id2 = eq.schedule(2, [&] { fired = true; });
    eq.deschedule(id1); // Stale: must not touch id2's event.
    EXPECT_NE(id1, id2);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, SameTickEventsScheduledMidDrainInterleaveByPriority)
{
    // A low-priority-value (earlier) event scheduled during the drain
    // of its own tick must still fire before remaining higher-value
    // events, exactly like the seed kernel's global (prio, seq) order.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5,
                [&] {
                    order.push_back(0);
                    eq.schedule(5, [&] { order.push_back(1); },
                                EventPriority::Delivery);
                },
                EventPriority::Control);
    eq.schedule(5, [&] { order.push_back(2); }, EventPriority::Core);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, LargeCapturesExecuteViaPooledStorage)
{
    // Captures beyond EventCallback's inline buffer go through the
    // slab pool; they must still run and destruct exactly once.
    EventQueue eq;
    auto guard = std::make_shared<int>(7);
    std::weak_ptr<int> watch = guard;
    struct Big
    {
        std::uint64_t pad[12];
        std::shared_ptr<int> p;
    };
    static_assert(sizeof(Big) > EventCallback::inlineCapacity);
    int seen = 0;
    eq.schedule(3, [big = Big{{}, std::move(guard)}, &seen] {
        seen = *big.p;
    });
    eq.run();
    EXPECT_EQ(seen, 7);
    EXPECT_TRUE(watch.expired()); // Capture destroyed after firing.
}

TEST(EventQueue, DescheduledCallbackIsEventuallyDestroyed)
{
    EventQueue eq;
    auto guard = std::make_shared<int>(1);
    std::weak_ptr<int> watch = guard;
    const auto id = eq.schedule(10, [g = std::move(guard)] {});
    eq.deschedule(id);
    eq.schedule(11, [] {});
    eq.run(); // Walking tick 10's bucket reclaims the tombstone.
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueueReserve, PassedAcrossPrioritiesAtOneTick)
{
    EventQueue eq;
    constexpr auto noSeq = EventQueue::noSeq;
    std::uint64_t ctl = noSeq, core = noSeq;
    std::vector<std::string> seen;
    const auto probe = [&](const char *at) {
        seen.push_back(std::string(at) + ":" +
                       (eq.passed(100, EventPriority::Control, ctl)
                            ? "C"
                            : "c") +
                       (eq.passed(100, EventPriority::Core, core) ? "K"
                                                                  : "k"));
    };
    eq.schedule(100, [&] {
        ctl = eq.reserveSeq(100, EventPriority::Control);
        core = eq.reserveSeq(100, EventPriority::Core);
        // A Delivery key at this tick would fire next, behind the
        // running Control event: refused.
        EXPECT_EQ(eq.reserveSeq(100, EventPriority::Delivery), noSeq);
        probe("self");
        // Behind the running event: fires next, passes nothing.
        eq.schedule(100, [&] { probe("delivery"); },
                    EventPriority::Delivery);
        // After the Control key in sequence order.
        eq.schedule(100, [&] { probe("control"); },
                    EventPriority::Control);
        eq.schedule(100, [&] { probe("stat"); }, EventPriority::Stat);
    }, EventPriority::Control);
    eq.schedule(200, [&] { probe("later"); }, EventPriority::Delivery);
    eq.run();
    ASSERT_NE(ctl, noSeq);
    ASSERT_NE(core, noSeq);
    EXPECT_EQ(seen, (std::vector<std::string>{"self:ck", "delivery:ck",
                                              "control:Ck", "stat:CK",
                                              "later:CK"}));
}

TEST(EventQueueReserve, EarlierTicksArePassed)
{
    EventQueue eq;
    std::uint64_t far = EventQueue::noSeq;
    bool at_300 = true, at_301 = false;
    eq.schedule(100, [&] {
        far = eq.reserveSeq(300, EventPriority::Default);
    });
    eq.schedule(300, [&] {
        at_300 = eq.passed(300, EventPriority::Default, far);
    }, EventPriority::Delivery);
    eq.schedule(301, [&] {
        at_301 = eq.passed(300, EventPriority::Default, far);
    }, EventPriority::Delivery);
    eq.run();
    ASSERT_NE(far, EventQueue::noSeq);
    EXPECT_FALSE(at_300);
    EXPECT_TRUE(at_301);
}

TEST(EventQueueReserve, RunUntilPassesEveryKeyAtItsLimit)
{
    EventQueue eq;
    std::uint64_t at_limit = EventQueue::noSeq;
    std::uint64_t beyond = EventQueue::noSeq;
    eq.schedule(10, [&] {
        at_limit = eq.reserveSeq(500, EventPriority::Default);
        beyond = eq.reserveSeq(501, EventPriority::Delivery);
    });
    eq.runUntil(500);
    EXPECT_TRUE(eq.passed(500, EventPriority::Default, at_limit));
    EXPECT_FALSE(eq.passed(501, EventPriority::Delivery, beyond));
    // An event scheduled now at the limit fires on the next run, out
    // of key order with the interval just run: no reservation there.
    EXPECT_EQ(eq.reserveSeq(500, EventPriority::Delivery),
              EventQueue::noSeq);
    EXPECT_NE(eq.reserveSeq(501, EventPriority::Delivery),
              EventQueue::noSeq);
    // A drained run passes everything up to its last tick.
    eq.schedule(700, [] {});
    eq.run();
    EXPECT_TRUE(eq.passed(501, EventPriority::Delivery, beyond));
    EXPECT_EQ(eq.reserveSeq(700, EventPriority::Default),
              EventQueue::noSeq);
}

TEST(EventQueueReserve, ScheduledReservationKeepsItsPlace)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] {
        const std::uint64_t seq =
            eq.reserveSeq(100, EventPriority::Control);
        eq.schedule(100, [&] { order.push_back(2); },
                    EventPriority::Control);
        eq.scheduleReserved(100, seq, [&] { order.push_back(1); },
                            EventPriority::Control);
    }, EventPriority::Control);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(eq.empty());
}

/**
 * Naive reference implementation of the kernel's ordering contract:
 * a flat vector scanned for the (tick, prio, seq) minimum each step.
 * A reservation is an event scheduled at once, with no callback until
 * scheduleReserved() gives it one; it has been passed once it fired.
 */
class ReferenceQueue
{
  public:
    std::uint64_t
    schedule(Tick when, std::function<void()> cb, EventPriority prio)
    {
        events.push_back(Ev{when, static_cast<int>(prio), nextSeq,
                            std::move(cb)});
        return nextSeq++;
    }

    /** Refused for a key before the greatest one fired so far. */
    std::uint64_t
    reserveSeq(Tick when, EventPriority prio)
    {
        const Ev key{when, static_cast<int>(prio), nextSeq, {}};
        if (firedAny && !before(lastMax, key))
            return EventQueue::noSeq;
        return schedule(when, {}, prio);
    }

    std::uint64_t
    scheduleReserved(Tick, std::uint64_t seq, std::function<void()> cb,
                     EventPriority)
    {
        for (Ev &e : events) {
            if (e.seq == seq)
                e.cb = std::move(cb);
        }
        return seq;
    }

    bool
    passed(Tick, EventPriority, std::uint64_t seq) const
    {
        for (const Ev &e : events) {
            if (e.seq == seq)
                return false;
        }
        return true;
    }

    void
    deschedule(std::uint64_t id)
    {
        for (auto it = events.begin(); it != events.end(); ++it) {
            if (it->seq == id) {
                events.erase(it);
                return;
            }
        }
    }

    Tick now() const { return currentTick; }

    bool
    step()
    {
        if (events.empty())
            return false;
        auto best = events.begin();
        for (auto it = events.begin(); it != events.end(); ++it) {
            if (before(*it, *best))
                best = it;
        }
        Ev ev = std::move(*best);
        events.erase(best);
        if (!ev.cb)
            return true; // A reservation nobody scheduled.
        if (!firedAny || before(lastMax, ev))
            lastMax = Ev{ev.when, ev.prio, ev.seq, {}};
        firedAny = true;
        currentTick = ev.when;
        ev.cb();
        return true;
    }

  private:
    struct Ev
    {
        Tick when;
        int prio;
        std::uint64_t seq;
        std::function<void()> cb;
    };

    static bool
    before(const Ev &a, const Ev &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.prio != b.prio ? a.prio < b.prio : a.seq < b.seq;
    }

    std::vector<Ev> events;
    Tick currentTick = 0;
    std::uint64_t nextSeq = 0;
    Ev lastMax{};
    bool firedAny = false;
};

/**
 * Drives one queue implementation through a randomized
 * schedule/deschedule/reschedule scenario. All decisions flow from
 * deterministic Rng streams (one for the outer driver, one derived
 * from each event's label), so two queues that execute events in the
 * same order make bit-identical decisions. Some events are reserved
 * now and scheduled later, in a later event that still finds the key
 * not passed; the rest are reserved and never scheduled. Every
 * refused reservation and every passed() that turns true is recorded
 * in the order alongside the fired labels.
 */
template <typename Q>
class ScenarioDriver
{
  public:
    ScenarioDriver(Q &q_, std::uint64_t seed_) : q(q_), seed(seed_) {}

    /** Reservations later scheduled under their keys. */
    unsigned scheduledReserved = 0;

    std::vector<std::uint64_t>
    run()
    {
        Rng rng(seed);
        for (int i = 0; i < 400; ++i) {
            scheduleOne(rng);
            if (rng.chance(0.1))
                reserveOne(rng);
            if (rng.chance(0.25) && !ids.empty())
                q.deschedule(ids[rng.below(ids.size())]);
        }
        while (q.step()) {
        }
        return fired;
    }

  private:
    static constexpr EventPriority prios[5] = {
        EventPriority::Delivery, EventPriority::Control,
        EventPriority::Core, EventPriority::Stat,
        EventPriority::Default};

    /** The kernel's wheel geometry (EventQueue::bucketBits and
     * wheelBuckets): 64-tick buckets, 2^16 of them. */
    static constexpr Tick bucketTicks = 64;
    static constexpr Tick horizon = bucketTicks << 16;

    Tick
    randomDelta(Rng &rng)
    {
        // Ticks to the first tick of the next bucket.
        const Tick toNext = bucketTicks - q.now() % bucketTicks;
        switch (rng.below(10)) {
          case 0:
            return 0; // Same-tick burst.
          case 1:
            return rng.range(1, 16); // Near events.
          case 2:
            return rng.range(500, 3000); // Router/DRAM latencies.
          case 3:
            return rng.range(4090, 4102); // Around 2^12 ticks.
          case 4:
            return rng.range(1u << 15, 1u << 20); // Deep in the wheel.
          case 5:
            // Around 2^24 ticks, past the wheel's reach.
            return rng.range((1u << 24) - 8, (1u << 24) + 8);
          case 6:
            return rng.range(Tick(1) << 25, Tick(1) << 28); // Spill.
          case 7:
            // The last tick of a bucket or the first of the next,
            // this bucket or up to three further on.
            return toNext + rng.below(4) * bucketTicks - rng.below(2);
          case 8:
            // One tick either side of the wheel's horizon.
            return horizon - bucketTicks + toNext - rng.below(2);
          default:
            return rng.range(1, 4096);
        }
    }

    void
    scheduleOne(Rng &rng)
    {
        if (budget == 0)
            return;
        --budget;
        const Tick when = q.now() + randomDelta(rng);
        const EventPriority prio = prios[rng.below(5)];
        const std::uint64_t label = nextLabel++;
        ids.push_back(q.schedule(
            when, [this, label] { onFire(label); }, prio));
    }

    /** Reserve a key for a fresh label; the label is scheduled, or
     * seen passed, from a later event. */
    void
    reserveOne(Rng &rng)
    {
        if (reserveBudget == 0)
            return;
        --reserveBudget;
        const Tick when = q.now() + randomDelta(rng);
        const EventPriority prio = prios[rng.below(5)];
        const std::uint64_t label = nextLabel++;
        const std::uint64_t seq = q.reserveSeq(when, prio);
        if (seq == EventQueue::noSeq)
            fired.push_back(refusedMark | label);
        else
            reserved.push_back(Reserved{label, when, prio, seq});
    }

    /** Record the reservations the queue went past; schedule some of
     * the others under their keys. */
    void
    settleReserved(Rng &rng)
    {
        std::vector<Reserved> keep;
        for (const Reserved &res : reserved) {
            if (q.passed(res.when, res.prio, res.seq)) {
                fired.push_back(passedMark | res.label);
            } else if (rng.chance(0.4)) {
                ++scheduledReserved;
                const std::uint64_t label = res.label;
                ids.push_back(q.scheduleReserved(
                    res.when, res.seq, [this, label] { onFire(label); },
                    res.prio));
            } else {
                keep.push_back(res);
            }
        }
        reserved.swap(keep);
    }

    void
    onFire(std::uint64_t label)
    {
        fired.push_back(label);
        // Per-label stream: both queues reach this label with the
        // same history, so both derive identical follow-up actions.
        Rng r(seed ^ (label * 0x9e3779b97f4a7c15ull));
        settleReserved(r);
        const std::uint64_t n = r.below(3);
        for (std::uint64_t i = 0; i < n; ++i)
            scheduleOne(r);
        if (r.chance(0.2))
            reserveOne(r);
        if (r.chance(0.35) && !ids.empty())
            q.deschedule(ids[r.below(ids.size())]);
    }

    struct Reserved
    {
        std::uint64_t label;
        Tick when;
        EventPriority prio;
        std::uint64_t seq;
    };

    static constexpr std::uint64_t refusedMark = 1ull << 62;
    static constexpr std::uint64_t passedMark = 1ull << 63;

    Q &q;
    std::uint64_t seed;
    std::vector<std::uint64_t> fired;
    std::vector<std::uint64_t> ids;
    std::vector<Reserved> reserved;
    std::uint64_t nextLabel = 0;
    int budget = 1500;
    int reserveBudget = 300;
};

TEST(EventQueueStress, ExecutionOrderMatchesReferenceQueue)
{
    unsigned scheduled = 0, passed = 0, refused = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        EventQueue wheel;
        ReferenceQueue ref;
        ScenarioDriver<EventQueue> driver(wheel, seed);
        const auto wheelOrder = driver.run();
        const auto refOrder =
            ScenarioDriver<ReferenceQueue>(ref, seed).run();
        ASSERT_FALSE(wheelOrder.empty());
        ASSERT_EQ(wheelOrder, refOrder) << "seed " << seed;
        EXPECT_EQ(wheel.now(), ref.now()) << "seed " << seed;
        EXPECT_TRUE(wheel.empty());
        scheduled += driver.scheduledReserved;
        for (const std::uint64_t e : wheelOrder) {
            passed += (e >> 63) & 1;
            refused += (e >> 62) & 1;
        }
    }
    // Every reservation outcome occurred.
    EXPECT_GT(scheduled, 0u);
    EXPECT_GT(passed, 0u);
    EXPECT_GT(refused, 0u);
}

TEST(Clocked, CycleTickConversions)
{
    ClockDomain clk(2000.0); // 2 GHz -> 500 ps
    EXPECT_EQ(clk.period(), 500u);
    EXPECT_EQ(clk.cyclesToTicks(4), 2000u);
}

TEST(Clocked, ClockEdgeAlignsUp)
{
    EventQueue eq;
    Clocked c(eq, "c", 1000.0); // 1 ns period
    eq.schedule(1500, [&] {
        EXPECT_EQ(c.clockEdge(), 2000u);
        EXPECT_EQ(c.clockEdge(2), 4000u);
    });
    eq.run();
}

TEST(Types, SerializationTicksRoundsUp)
{
    // 64 bytes at 25 GB/s = 2.56 ns -> 2560 ps.
    EXPECT_EQ(serializationTicks(64, 25.0), 2560u);
    // 1 byte at 19.2 GB/s = 52.08.. ps -> rounds up to 53.
    EXPECT_EQ(serializationTicks(1, 19.2), 53u);
}

} // namespace
} // namespace dimmlink
