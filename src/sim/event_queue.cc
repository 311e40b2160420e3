#include "sim/event_queue.hh"

#include <algorithm>

#include "common/log.hh"

namespace dimmlink {

namespace {

/** Min-heap order on (tick, prio, seq): the least entry on top. */
constexpr auto after = [](const auto &a, const auto &b) {
    if (a.when != b.when)
        return a.when > b.when;
    return a.prio != b.prio ? a.prio > b.prio : a.seq > b.seq;
};

} // namespace

EventQueue::EventQueue()
    : wheel(wheelBuckets, nullIdx), occupied(wheelBuckets / 64, 0)
{
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
EventQueue::push(std::vector<HeapEntry> &heap, std::uint32_t idx)
{
    const Slot &s = slots[idx];
    heap.push_back(HeapEntry{s.when, s.seq, idx, s.prio});
    std::push_heap(heap.begin(), heap.end(), after);
}

std::uint32_t
EventQueue::pop(std::vector<HeapEntry> &heap)
{
    std::pop_heap(heap.begin(), heap.end(), after);
    const std::uint32_t idx = heap.back().idx;
    heap.pop_back();
    return idx;
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
    const Tick bucket = when >> bucketBits;
    if (bucket <= curBucket) {
        push(ready, idx);
    } else if (bucket - curBucket < wheelBuckets) {
        const auto b = static_cast<std::uint32_t>(bucket) &
                       (wheelBuckets - 1);
        s.next = wheel[b];
        wheel[b] = idx;
        occupied[b >> 6] |= 1ull << (b & 63);
    } else {
        push(spill, idx);
    }
    return (static_cast<EventId>(s.gen) << 32) |
           static_cast<EventId>(idx + 1);
}

std::uint64_t
EventQueue::reserveSeq(Tick when, EventPriority prio)
{
    // A fresh key never equals a fired one; >= only admits the very
    // first key against the initial position 0.
    const Key key = keyOf(when, static_cast<std::int32_t>(prio), nextSeq);
    return key >= position ? nextSeq++ : noSeq;
}

EventQueue::EventId
EventQueue::scheduleReserved(Tick when, std::uint64_t seq, Callback cb,
                             EventPriority prio)
{
    if (passed(when, prio, seq))
        panic("scheduling reserved event %llu after the kernel passed it",
              static_cast<unsigned long long>(seq));
    // schedule() stamps nextSeq; lend it the reserved number.
    const std::uint64_t next = nextSeq;
    nextSeq = seq;
    const EventId id = schedule(when, std::move(cb), prio);
    nextSeq = next;
    return id;
}

bool
EventQueue::passed(Tick when, EventPriority prio, std::uint64_t seq) const
{
    return position > keyOf(when, static_cast<std::int32_t>(prio), seq);
}

void
EventQueue::passThrough(Tick tick)
{
    position = std::max(position, (Key{tick} << 64) | ~std::uint64_t{0});
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
EventQueue::loadNextBucket(Tick limit)
{
    // The wheel holds buckets curBucket + 1 .. curBucket +
    // wheelBuckets - 1, one per bit, so the first set bit in circular
    // order from curBucket + 1's is the earliest. curBucket's own bit
    // is never set; the scan ends by rereading the first word whole.
    constexpr Tick words = wheelBuckets / 64;
    Tick word = (curBucket + 1) >> 6;
    std::uint64_t w =
        occupied[word % words] & (~0ull << ((curBucket + 1) & 63));
    for (const Tick end = word + words; !w && word < end;)
        w = occupied[++word % words];
    Tick next = w ? (word << 6) + static_cast<Tick>(__builtin_ctzll(w))
                  : maxTick;
    // Spill entries lie past curBucket but may have come within the
    // wheel's reach since they were spilled.
    if (!spill.empty())
        next = std::min(next, spill.front().when >> bucketBits);
    if (next == maxTick || (next << bucketBits) > limit)
        return false;

    const auto take = [this](std::uint32_t i) {
        if (slots[i].live)
            push(ready, i);
        else
            freeSlot(i);
    };
    curBucket = next;
    const auto b = static_cast<std::uint32_t>(next) & (wheelBuckets - 1);
    std::uint32_t idx = wheel[b];
    wheel[b] = nullIdx;
    occupied[b >> 6] &= ~(1ull << (b & 63));
    while (idx != nullIdx) {
        const std::uint32_t link = slots[idx].next;
        take(idx);
        idx = link;
    }
    while (!spill.empty() && (spill.front().when >> bucketBits) == next)
        take(pop(spill));
    return true;
}

bool
EventQueue::fireNext(Tick limit)
{
    for (;;) {
        if (ready.empty()) {
            if (!loadNextBucket(limit))
                return false;
            continue;
        }
        const HeapEntry &top = ready.front();
        if (!slots[top.idx].live) {
            freeSlot(pop(ready));
            continue;
        }
        if (top.when > limit)
            return false; // Even a loaded bucket's later events wait.
        position = std::max(position, keyOf(top.when, top.prio, top.seq));
        const std::uint32_t idx = pop(ready);
        // Move the callback out and recycle the slot first so the
        // callback can freely schedule (possibly reusing this slot).
        Slot &s = slots[idx];
        Callback cb = std::move(s.cb);
        currentTick = s.when;
        --liveCount;
        ++executedCount;
        freeSlot(idx);
        cb();
        return true;
    }
}

bool
EventQueue::step()
{
    if (fireNext(maxTick))
        return true;
    passThrough(currentTick);
    return false;
}

Tick
EventQueue::run()
{
    while (fireNext(maxTick)) {
    }
    passThrough(currentTick);
    return currentTick;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (fireNext(limit)) {
    }
    // The interval [now, limit] has been fully simulated: advance the
    // clock even when the last event fired earlier, so callers
    // comparing now() to limit see the whole window as elapsed.
    if (currentTick < limit)
        currentTick = limit;
    passThrough(limit);
    return currentTick;
}

} // namespace dimmlink
