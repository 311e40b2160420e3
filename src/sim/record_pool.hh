/**
 * @file
 * RecordPool: recycled storage for per-transfer completion records.
 * A copyable closure that has to reach move-only state (an
 * EventCallback, a count shared by several closures) captures a
 * pointer to a pooled record instead of a shared_ptr, so it stays
 * small enough for std::function's inline buffer and the steady state
 * performs no heap allocation.
 */

#ifndef DIMMLINK_SIM_RECORD_POOL_HH
#define DIMMLINK_SIM_RECORD_POOL_HH

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "sim/event_callback.hh"

namespace dimmlink {

/**
 * A free list of default-constructible records with stable addresses.
 * The pool owns every record it hands out, so records still in flight
 * when the owner is destroyed are reclaimed with it.
 */
template <typename T>
class RecordPool
{
  public:
    /** A record in its default state. */
    T *
    acquire()
    {
        if (freeList.empty())
            return &store.emplace_back();
        T *r = freeList.back();
        freeList.pop_back();
        return r;
    }

    /** Reset @p r to its default state and recycle it. */
    void
    release(T *r)
    {
        *r = T{};
        freeList.push_back(r);
    }

  private:
    std::deque<T> store;
    std::vector<T *> freeList;
};

/**
 * The shared completion of a fan-out: the closure of every leg is
 * [this, countdown], and @ref land() fires the transfer's completion
 * when the last leg arrives.
 */
class CountdownPool
{
  public:
    struct Countdown
    {
        EventCallback done;
        std::size_t remaining = 0;
    };

    /** A countdown over @p legs (> 0) legs ending in @p done. */
    Countdown *
    start(std::size_t legs, EventCallback done)
    {
        Countdown *c = pool.acquire();
        c->done = std::move(done);
        c->remaining = legs;
        return c;
    }

    /** One leg of @p c arrived; after the last one the record is
     * recycled and its completion (when engaged) runs. */
    void
    land(Countdown *c)
    {
        if (--c->remaining != 0)
            return;
        EventCallback done = std::move(c->done);
        pool.release(c);
        if (done)
            done();
    }

  private:
    RecordPool<Countdown> pool;
};

} // namespace dimmlink

#endif // DIMMLINK_SIM_RECORD_POOL_HH
