/**
 * @file
 * The discrete-event simulation kernel. A single global EventQueue per
 * System orders callbacks by (tick, priority, insertion sequence), which
 * makes every simulation bit-for-bit deterministic.
 *
 * Internally the queue is an allocation-free hierarchical timing wheel
 * (see docs/sim_kernel.md): near-future events hash into fixed-size
 * wheel slots, far-future events spill into a sorted heap that refills
 * the wheel as simulated time advances, and cancelled events are
 * generation-tagged tombstones reclaimed lazily. Same-tick bursts --
 * the dominant pattern from routers and the DRAM controller -- insert
 * in O(1) and drain in deterministic (priority, sequence) order.
 */

#ifndef DIMMLINK_SIM_EVENT_QUEUE_HH
#define DIMMLINK_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/event_callback.hh"

namespace dimmlink {

namespace obs { class Tracer; }

/**
 * Event priorities; lower values fire first within the same tick.
 * The defaults follow the dependency order of one simulated cycle:
 * links deliver, then controllers react, then cores observe.
 */
enum class EventPriority : int {
    Delivery = 0,  ///< Flit/packet arrival, DRAM data return.
    Control = 10,  ///< Controller state machines, arbiters.
    Core = 20,     ///< Core op issue/retire.
    Stat = 30,     ///< End-of-interval statistics sampling.
    Default = 50,
};

/**
 * The global event queue. Not thread-safe: one queue drives one System.
 */
class EventQueue
{
  public:
    using Callback = EventCallback;
    /** Opaque handle for deschedule(); 0 is never a valid id. */
    using EventId = std::uint64_t;

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return currentTick; }

    /**
     * Schedule @p cb at absolute time @p when.
     * @pre when >= now(); scheduling in the past is a simulator bug.
     * @return an id usable with deschedule().
     */
    EventId schedule(Tick when, Callback cb,
                     EventPriority prio = EventPriority::Default);

    /** Schedule @p cb @p delta ticks from now. */
    EventId
    scheduleIn(Tick delta, Callback cb,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(currentTick + delta, std::move(cb), prio);
    }

    /**
     * Cancel a previously scheduled event; idempotent, and a no-op
     * for events that already fired (the generation tag in the id
     * distinguishes a recycled slot from the original event).
     */
    void deschedule(EventId id);

    /** True when no live events remain. */
    bool empty() const { return liveCount == 0; }

    /** Number of live (non-cancelled) events. */
    std::size_t size() const { return liveCount; }

    /** Execute events until the queue drains. @return final tick. */
    Tick run();

    /**
     * Execute events with tick <= limit. Events scheduled at exactly
     * @p limit do fire. Afterwards now() == limit even when the last
     * event fired earlier, so callers can treat the queue as having
     * observed the whole interval. @return the final tick.
     */
    Tick runUntil(Tick limit);

    /** Execute exactly one event if present. @return true if fired. */
    bool step();

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executedCount; }

    /**
     * The System's event tracer, or null when tracing is off.
     * Components reach the tracer through the queue they already hold
     * so observability needs no extra constructor plumbing.
     */
    obs::Tracer *tracer() const { return tracerPtr; }
    void setTracer(obs::Tracer *t) { tracerPtr = t; }

  private:
    /** Level-0 wheel: 1-tick buckets covering wheelSpan ticks. */
    static constexpr unsigned l0Bits = 12;
    static constexpr std::uint32_t l0Slots = 1u << l0Bits;
    static constexpr std::uint32_t l0Mask = l0Slots - 1;
    static constexpr Tick l0Span = l0Slots;
    /** Level-1 wheel: l0Span-tick buckets covering l1Span ticks. */
    static constexpr unsigned l1Bits = 12;
    static constexpr std::uint32_t l1Slots = 1u << l1Bits;
    static constexpr std::uint32_t l1Mask = l1Slots - 1;
    static constexpr Tick l1Span = static_cast<Tick>(l0Span) << l1Bits;

    static constexpr std::uint32_t nullIdx = 0xffffffffu;

    /** One pooled event record; recycled through a free list. */
    struct Slot
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Callback cb;
        std::uint32_t next = nullIdx; ///< Intrusive wheel/free link.
        std::uint32_t gen = 0;        ///< Bumped on every recycle.
        std::int32_t prio = 0;
        bool live = false;
    };

    /** Entry in the current-tick ready heap, ordered (prio, seq). */
    struct ReadyEntry
    {
        std::uint64_t seq;
        std::uint32_t idx;
        std::int32_t prio;
    };

    /** Entry in the far-future spill heap, ordered by tick. */
    struct SpillEntry
    {
        Tick when;
        std::uint32_t idx;
    };

    template <std::uint32_t N>
    struct Wheel
    {
        std::array<std::uint32_t, N> head;
        std::array<std::uint64_t, N / 64> occupied;
    };

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);
    /** Route a pending (non-current-tick) event into wheel/spill. */
    void place(std::uint32_t idx);
    void pushReady(std::uint32_t idx);
    /** Pop the (prio, seq)-least ready entry. @pre !ready.empty() */
    ReadyEntry popReady();
    /** Take slot list @p s of the L0 wheel into the ready heap. */
    bool loadL0(std::uint32_t s, Tick tick);
    /** Redistribute L1 slot @p s into the L0 wheel. */
    void cascadeL1(std::uint32_t s);
    Tick scanL0() const;
    /** @return the span-start tick of the first occupied L1 slot. */
    Tick scanL1() const;
    /**
     * Load the next tick <= @p limit with at least one live event
     * into the ready heap and advance currentTick to it. Frees
     * tombstones encountered on the way. @return false when no such
     * tick exists (currentTick is then left untouched).
     */
    bool advanceUpTo(Tick limit);
    /** Pop ready entries until a live one fires. @return true if so. */
    bool fireOneReady();

    std::vector<Slot> slots;
    std::uint32_t freeHead = nullIdx;
    Wheel<l0Slots> l0;
    Wheel<l1Slots> l1;
    std::vector<ReadyEntry> ready;
    std::vector<SpillEntry> spill;
    Tick currentTick = 0;
    /**
     * Wheel time: the window base for both wheel levels. Trails every
     * pending event and never decreases; may run ahead of currentTick
     * across stretches of tombstoned ticks.
     */
    Tick wheelTime = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executedCount = 0;
    std::size_t liveCount = 0;
    obs::Tracer *tracerPtr = nullptr;
};

} // namespace dimmlink

#endif // DIMMLINK_SIM_EVENT_QUEUE_HH
