#include "sim/event_queue.hh"

#include <algorithm>

#include "common/log.hh"

namespace dimmlink {

namespace {

/** Min-heap order for the ready heap: least (prio, seq) on top. */
struct ReadyAfter
{
    template <typename E>
    bool
    operator()(const E &a, const E &b) const
    {
        if (a.prio != b.prio)
            return a.prio > b.prio;
        return a.seq > b.seq;
    }
};

/** Min-heap order for the spill heap: least tick on top. */
struct SpillAfter
{
    template <typename E>
    bool
    operator()(const E &a, const E &b) const
    {
        return a.when > b.when;
    }
};

/**
 * Offset (in circular order from @p base) of the first set bit in an
 * N-bit occupancy bitmap, or N when the bitmap is empty. N and the
 * word count must be powers of two.
 */
template <std::uint32_t N>
std::uint32_t
firstOccupiedFrom(const std::array<std::uint64_t, N / 64> &bits,
                  std::uint32_t base)
{
    constexpr std::uint32_t words = N / 64;
    const std::uint32_t baseWord = base >> 6;
    const auto offsetOf = [base](std::uint32_t slot) {
        return (slot - base) & (N - 1);
    };
    // Bits at or after base inside the base word...
    std::uint64_t w = bits[baseWord] & (~0ull << (base & 63));
    if (w)
        return offsetOf((baseWord << 6) +
                        static_cast<std::uint32_t>(
                            __builtin_ctzll(w)));
    // ...then whole words in circular order...
    for (std::uint32_t i = 1; i < words; ++i) {
        const std::uint32_t wi = (baseWord + i) & (words - 1);
        if (bits[wi])
            return offsetOf((wi << 6) +
                            static_cast<std::uint32_t>(
                                __builtin_ctzll(bits[wi])));
    }
    // ...and finally the bits before base in the base word.
    w = bits[baseWord] & ~(~0ull << (base & 63));
    if (w)
        return offsetOf((baseWord << 6) +
                        static_cast<std::uint32_t>(
                            __builtin_ctzll(w)));
    return N;
}

} // namespace

EventQueue::EventQueue()
{
    l0.head.fill(nullIdx);
    l0.occupied.fill(0);
    l1.head.fill(nullIdx);
    l1.occupied.fill(0);
    slots.reserve(256);
}

EventQueue::~EventQueue() = default;

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead != nullIdx) {
        const std::uint32_t idx = freeHead;
        freeHead = slots[idx].next;
        return idx;
    }
    if (slots.size() >= static_cast<std::size_t>(nullIdx) - 1)
        panic("event queue slot space exhausted");
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t idx)
{
    Slot &s = slots[idx];
    s.cb.reset();
    s.live = false;
    ++s.gen;
    s.next = freeHead;
    freeHead = idx;
}

void
EventQueue::place(std::uint32_t idx)
{
    Slot &s = slots[idx];
    const Tick when = s.when;
    if (when >= wheelTime && when - wheelTime < l0Span) {
        const auto slot = static_cast<std::uint32_t>(when) & l0Mask;
        s.next = l0.head[slot];
        l0.head[slot] = idx;
        l0.occupied[slot >> 6] |= 1ull << (slot & 63);
    } else if (when >= wheelTime &&
               (when >> l0Bits) - (wheelTime >> l0Bits) < l1Slots) {
        // The span-index test (not a raw tick delta) keeps every L1
        // event in one of the l1Slots spans following wheelTime's,
        // so no slot ever aliases two spans.
        const auto slot =
            static_cast<std::uint32_t>(when >> l0Bits) & l1Mask;
        s.next = l1.head[slot];
        l1.head[slot] = idx;
        l1.occupied[slot >> 6] |= 1ull << (slot & 63);
    } else {
        // Beyond the wheel horizon -- or (rarely) behind the wheel
        // window, when tombstoned ticks advanced wheelTime past
        // now(). The spill heap accepts any tick.
        s.next = nullIdx;
        spill.push_back(SpillEntry{when, idx});
        std::push_heap(spill.begin(), spill.end(), SpillAfter{});
    }
}

void
EventQueue::pushReady(std::uint32_t idx)
{
    const Slot &s = slots[idx];
    ready.push_back(ReadyEntry{s.seq, idx, s.prio});
    std::push_heap(ready.begin(), ready.end(), ReadyAfter{});
}

EventQueue::ReadyEntry
EventQueue::popReady()
{
    std::pop_heap(ready.begin(), ready.end(), ReadyAfter{});
    const ReadyEntry e = ready.back();
    ready.pop_back();
    return e;
}

EventQueue::EventId
EventQueue::schedule(Tick when, Callback cb, EventPriority prio)
{
    if (when < currentTick)
        panic("scheduling event at tick %llu before now (%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(currentTick));
    const std::uint32_t idx = allocSlot();
    Slot &s = slots[idx];
    s.when = when;
    s.seq = nextSeq++;
    s.cb = std::move(cb);
    s.prio = static_cast<std::int32_t>(prio);
    s.live = true;
    ++liveCount;
    if (when == currentTick)
        pushReady(idx);
    else
        place(idx);
    return (static_cast<EventId>(s.gen) << 32) |
           static_cast<EventId>(idx + 1);
}

void
EventQueue::deschedule(EventId id)
{
    const auto low = static_cast<std::uint32_t>(id);
    if (low == 0)
        return;
    const std::uint32_t idx = low - 1;
    if (idx >= slots.size())
        return;
    Slot &s = slots[idx];
    if (s.gen != static_cast<std::uint32_t>(id >> 32) || !s.live)
        return;
    // Tombstone: the slot stays linked wherever it lives and is
    // reclaimed when the kernel next walks past it.
    s.live = false;
    --liveCount;
}

bool
EventQueue::loadL0(std::uint32_t slot, Tick tick)
{
    std::uint32_t idx = l0.head[slot];
    l0.head[slot] = nullIdx;
    l0.occupied[slot >> 6] &= ~(1ull << (slot & 63));
    bool any_live = false;
    while (idx != nullIdx) {
        const std::uint32_t next = slots[idx].next;
        if (!slots[idx].live) {
            freeSlot(idx);
        } else {
            // Window invariant: every event in an L0 slot shares one
            // tick; anything else is kernel corruption.
            if (slots[idx].when != tick)
                panic("L0 wheel slot holds tick %llu, expected %llu",
                      static_cast<unsigned long long>(
                          slots[idx].when),
                      static_cast<unsigned long long>(tick));
            pushReady(idx);
            any_live = true;
        }
        idx = next;
    }
    return any_live;
}

void
EventQueue::cascadeL1(std::uint32_t slot)
{
    std::uint32_t idx = l1.head[slot];
    l1.head[slot] = nullIdx;
    l1.occupied[slot >> 6] &= ~(1ull << (slot & 63));
    while (idx != nullIdx) {
        const std::uint32_t next = slots[idx].next;
        if (!slots[idx].live)
            freeSlot(idx);
        else
            place(idx);
        idx = next;
    }
}

Tick
EventQueue::scanL0() const
{
    // The first occupied slot in circular order from the window base
    // holds the least pending L0 tick: each occupied slot maps to a
    // unique tick inside [wheelTime, wheelTime + l0Span).
    const auto base = static_cast<std::uint32_t>(wheelTime) & l0Mask;
    const std::uint32_t off =
        firstOccupiedFrom<l0Slots>(l0.occupied, base);
    return off == l0Slots ? maxTick : wheelTime + off;
}

Tick
EventQueue::scanL1() const
{
    const auto base =
        static_cast<std::uint32_t>(wheelTime >> l0Bits) & l1Mask;
    const std::uint32_t off =
        firstOccupiedFrom<l1Slots>(l1.occupied, base);
    if (off == l1Slots)
        return maxTick;
    // Span-start tick; the slot's events all lie inside
    // [start, start + l0Span).
    return ((wheelTime >> l0Bits) + off) << l0Bits;
}

bool
EventQueue::advanceUpTo(Tick limit)
{
    for (;;) {
        const Tick l0cand = scanL0();
        const Tick spillTop =
            spill.empty() ? maxTick : spill.front().when;
        const Tick l1span = scanL1();
        const Tick bound = std::min(l0cand, spillTop);

        // An L1 slot whose span starts at or before the best L0 /
        // spill candidate may hold events at an earlier (or equal)
        // tick; cascade it into L0 before trusting the candidates so
        // that every event at the eventual tick is visible at once.
        if (l1span != maxTick && l1span <= bound) {
            if (l1span > limit)
                return false; // Everything pending lies past limit.
            // Raising the window base is safe: l1span trails every
            // pending wheel tick here.
            wheelTime = std::max(wheelTime, l1span);
            cascadeL1(static_cast<std::uint32_t>(l1span >> l0Bits) &
                      l1Mask);
            continue;
        }

        if (bound == maxTick || bound > limit)
            return false;
        const Tick next = bound;
        bool any_live = false;
        if (l0cand == next)
            any_live = loadL0(static_cast<std::uint32_t>(next) &
                                  l0Mask,
                              next);
        while (!spill.empty() && spill.front().when == next) {
            std::pop_heap(spill.begin(), spill.end(), SpillAfter{});
            const std::uint32_t idx = spill.back().idx;
            spill.pop_back();
            if (!slots[idx].live) {
                freeSlot(idx);
            } else {
                pushReady(idx);
                any_live = true;
            }
        }
        wheelTime = std::max(wheelTime, next);
        if (any_live) {
            currentTick = next;
            return true;
        }
        // Every event at this tick was tombstoned; keep looking
        // without letting now() observe the dead tick.
    }
}

bool
EventQueue::fireOneReady()
{
    while (!ready.empty()) {
        const ReadyEntry e = popReady();
        Slot &s = slots[e.idx];
        if (!s.live) {
            freeSlot(e.idx);
            continue;
        }
        // Move the callback out and recycle the slot first so the
        // callback can freely schedule (possibly reusing this slot).
        Callback cb = std::move(s.cb);
        currentTick = s.when;
        --liveCount;
        ++executedCount;
        freeSlot(e.idx);
        cb();
        return true;
    }
    return false;
}

bool
EventQueue::step()
{
    for (;;) {
        if (fireOneReady())
            return true;
        if (!advanceUpTo(maxTick))
            return false;
    }
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return currentTick;
}

Tick
EventQueue::runUntil(Tick limit)
{
    for (;;) {
        if (!ready.empty()) {
            // Ready events always sit at currentTick; past the limit
            // they must stay pending.
            if (currentTick > limit)
                break;
            if (fireOneReady())
                continue;
        }
        if (!advanceUpTo(limit))
            break;
    }
    // The interval [now, limit] has been fully simulated: advance the
    // clock even when the last event fired earlier, so callers
    // comparing now() to limit see the whole window as elapsed.
    if (currentTick < limit)
        currentTick = limit;
    return currentTick;
}

} // namespace dimmlink
