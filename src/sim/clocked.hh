/**
 * @file
 * ClockDomain and Clocked: give each component its own clock while all
 * of them share the global picosecond EventQueue.
 */

#ifndef DIMMLINK_SIM_CLOCKED_HH
#define DIMMLINK_SIM_CLOCKED_HH

#include <string>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace dimmlink {

/** A clock frequency expressed as an integer tick period. */
class ClockDomain
{
  public:
    explicit ClockDomain(double freq_mhz)
        : periodPs(periodFromMHz(freq_mhz))
    {}

    Tick period() const { return periodPs; }

    /** Ticks for @p n cycles of this clock. */
    Tick cyclesToTicks(Cycles n) const { return n * periodPs; }

  private:
    Tick periodPs;
};

/**
 * Base class for named simulation components that own a clock domain.
 * Mirrors gem5's SimObject/Clocked split in a compact form.
 */
class Clocked
{
  public:
    Clocked(EventQueue &eq, std::string name, double freq_mhz)
        : eventq(eq), name_(std::move(name)), clock_(freq_mhz)
    {}

    virtual ~Clocked() = default;

    const std::string &name() const { return name_; }
    const ClockDomain &clock() const { return clock_; }
    EventQueue &queue() { return eventq; }
    Tick now() const { return eventq.now(); }

    /**
     * The next tick aligned to this clock's edge, at least one cycle
     * ahead when already on an edge boundary and @p min_cycles == 1.
     */
    Tick
    clockEdge(Cycles min_cycles = 0) const
    {
        const Tick p = clock_.period();
        const Tick aligned = ((now() + p - 1) / p) * p;
        return aligned + min_cycles * p;
    }

    /** Schedule a callback @p cycles local cycles from now. */
    std::uint64_t
    scheduleCycles(Cycles cycles, EventQueue::Callback cb,
                   EventPriority prio = EventPriority::Default)
    {
        return eventq.scheduleIn(clock_.cyclesToTicks(cycles),
                                 std::move(cb), prio);
    }

  protected:
    EventQueue &eventq;

  private:
    std::string name_;
    ClockDomain clock_;
};

} // namespace dimmlink

#endif // DIMMLINK_SIM_CLOCKED_HH
