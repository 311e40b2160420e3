/**
 * @file
 * The discrete-event simulation kernel. A single global EventQueue per
 * System orders callbacks by (tick, priority, insertion sequence), which
 * makes every simulation bit-for-bit deterministic.
 *
 * Internally the queue is an allocation-free bucketed timing wheel
 * (see docs/sim_kernel.md): events in the next wheelBuckets buckets of
 * 2^bucketBits ticks hang off intrusive per-bucket lists, later ones
 * wait in a spill heap, and the earliest bucket sits in a ready heap
 * ordered by (tick, priority, sequence). Cancelled events are
 * generation-tagged tombstones reclaimed lazily.
 */

#ifndef DIMMLINK_SIM_EVENT_QUEUE_HH
#define DIMMLINK_SIM_EVENT_QUEUE_HH

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

    /** reserveSeq()'s answer when it cannot reserve a key. */
    static constexpr std::uint64_t noSeq = ~std::uint64_t{0};

    /**
     * Reserve the key (@p when, @p prio, seq) of an event without
     * scheduling it. The event keeps its place in the total order
     * exactly as if schedule() had been called now: scheduleReserved()
     * can still schedule it under that key until passed() says the
     * kernel went by it. Reserving is refused (noSeq) for a key that
     * would sort before an event that already fired -- a same-tick key
     * of lower priority than the running event, or a key at the tick
     * where a drained run() or a runUntil() stopped. Such an event
     * would fire next, out of key order, which passed() cannot see; the
     * caller schedules it instead.
     * @return the reserved sequence number, or noSeq.
     */
    std::uint64_t reserveSeq(Tick when, EventPriority prio);

    /**
     * Schedule @p cb under a key taken from reserveSeq().
     * @pre !passed(when, prio, seq).
     */
    EventId scheduleReserved(Tick when, std::uint64_t seq, Callback cb,
                             EventPriority prio);

    /**
     * True once the kernel has gone past the reserved key (@p when,
     * @p prio, @p seq): an event scheduled under it at reservation time
     * would have fired by now.
     */
    bool passed(Tick when, EventPriority prio, std::uint64_t seq) const;

    /**
     * Cancel a previously scheduled event; idempotent, and a no-op
     * for events that already fired (the generation tag in the id
     * distinguishes a recycled slot from the original event).
     */
    void deschedule(EventId id);

    /** True when no live events remain (reserved keys not counted). */
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
    /** Wheel geometry, chosen by measurement (docs/sim_kernel.md):
     * 2^16 buckets of 64 ticks reach 2^22 ps (4.2 us) ahead. */
    static constexpr unsigned bucketBits = 6;
    static constexpr std::uint32_t wheelBuckets = 1u << 16;
    static constexpr std::uint32_t nullIdx = 0xffffffffu;

    /** One pooled event record; recycled through a free list. */
    struct Slot
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Callback cb;
        std::uint32_t next = nullIdx; ///< Intrusive bucket/free link.
        std::uint32_t gen = 0;        ///< Bumped on every recycle.
        std::int32_t prio = 0;
        bool live = false;
    };

    /** Ready or spill heap entry, ordered (tick, prio, seq). */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t idx;
        std::int32_t prio;
    };

    /**
     * A (tick, prio, seq) key as one number that orders the same way:
     * the tick in the high 64 bits, then 8 bits of priority (every
     * EventPriority is below 256) and 56 of sequence number (2^56
     * events are centuries of simulation).
     */
    using Key = unsigned __int128;
    static Key
    keyOf(Tick when, std::int32_t prio, std::uint64_t seq)
    {
        return (Key{when} << 64) |
               (Key{static_cast<std::uint32_t>(prio)} << 56) | seq;
    }
    static_assert(static_cast<int>(EventPriority::Default) < 256);

    /** Move the position past every key at or before @p tick, once
     * every pending event up to that tick has fired. */
    void passThrough(Tick tick);

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);
    void push(std::vector<HeapEntry> &heap, std::uint32_t idx);
    /** Pop @p heap's least entry. @return its slot. */
    std::uint32_t pop(std::vector<HeapEntry> &heap);
    /**
     * Move the next occupied bucket -- its wheel list and its spill
     * entries -- into the ready heap, if that bucket starts at or
     * before @p limit. now() is left untouched. @return true if so.
     */
    bool loadNextBucket(Tick limit);
    /** Execute the next event if its tick is <= @p limit.
     * @return true if one fired. */
    bool fireNext(Tick limit);

    std::vector<Slot> slots;
    std::uint32_t freeHead = nullIdx;
    std::vector<std::uint32_t> wheel;    ///< Bucket list heads.
    std::vector<std::uint64_t> occupied; ///< One bit per bucket.
    std::vector<HeapEntry> ready;
    std::vector<HeapEntry> spill;
    Tick currentTick = 0;
    /**
     * The ready heap holds every pending event in buckets up to
     * curBucket, the wheel those of the next wheelBuckets - 1 buckets,
     * and the spill heap the rest. Never decreases.
     */
    Tick curBucket = 0;
    std::uint64_t nextSeq = 0;
    /**
     * The greatest key fired so far (as keyOf()), or the end of the
     * tick where a drained run() or a runUntil() stopped. A reserved key is passed
     * once it sorts behind the position: reserveSeq() hands out only
     * keys ahead of it, and it moves past one only when a later event
     * fires, by which time the heap would have fired the key itself.
     */
    Key position = 0;
    std::uint64_t executedCount = 0;
    std::size_t liveCount = 0;
    obs::Tracer *tracerPtr = nullptr;
};

} // namespace dimmlink

#endif // DIMMLINK_SIM_EVENT_QUEUE_HH
