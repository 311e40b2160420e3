/**
 * @file
 * The four host polling mechanisms of Table III. The engine models
 * when the host CPU learns that a DIMM holds forwarding requests, and
 * charges every polling read's bus occupancy to the right channel —
 * including the idle polling that never finds a request (the cost the
 * polling proxy exists to remove).
 *
 * The four mechanisms are two discovery policies applied to two
 * target sets; the caller picks the targets (every DIMM under "Base",
 * one proxy per group under "P-P"), and cfg.pollingMode picks the
 * policy. The periodic modes ("Base", "P-P") sweep each channel's
 * targets every poll interval; the ALERT_N modes ("Base+Itrpt",
 * "P-P+Itrpt") sleep until a target raises the shared per-channel
 * interrupt line, then scan that channel's targets.
 */

#ifndef DIMMLINK_HOST_POLLING_HH
#define DIMMLINK_HOST_POLLING_HH

#include <set>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "host/channel.hh"
#include "sim/event_callback.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace host {

class PollingEngine
{
  public:
    /**
     * @param targets  DIMMs the host polls (all DIMMs under Baseline;
     *                 one proxy per group under the proxy schemes).
     */
    PollingEngine(EventQueue &eq, const SystemConfig &cfg,
                  std::vector<Channel *> channels,
                  std::vector<DimmId> targets, stats::Registry &reg);

    // Scheduled events hold `this`.
    PollingEngine(const PollingEngine &) = delete;
    PollingEngine &operator=(const PollingEngine &) = delete;

    /** Enter NMP-Access mode: background polling begins. */
    void start();

    /** Leave NMP-Access mode: polling stops, and the pending targets
     * and their queued jobs are dropped. */
    void stop();

    /**
     * Queue @p job at polled target @p target and raise a forwarding
     * request there. Under interrupt modes this raises ALERT_N on the
     * target's channel; otherwise the next sweep discovers it. The
     * discovery runs every job queued at the target by then,
     * including one queued while the poll read was in flight.
     */
    void request(DimmId target, EventCallback job);

  private:
    /** Schedule a service of channel @p ch at @p when (no earlier
     * than now) unless one is already outstanding; under interrupt
     * modes this raises ALERT_N. */
    void scheduleService(ChannelId ch, Tick when);

    /** Poll every target on @p ch back to back, then schedule the
     * next sweep (periodic) or re-raise ALERT_N when a request
     * slipped in meanwhile (interrupt). */
    void service(ChannelId ch);

    /** One polling read of @p target, starting no earlier than
     * @p earliest. @return the read's completion tick. */
    Tick pollOne(DimmId target, Tick earliest);

    /** True when any pending target sits on channel @p ch. */
    bool anyPendingOn(ChannelId ch) const;

    /** The host discovered @p target: run its queued jobs. */
    void discover(DimmId target);

    EventQueue &eventq;
    const SystemConfig &cfg;
    /** ALERT_N discovery (the +Itrpt modes) instead of sweeps. */
    const bool interrupt;
    std::vector<Channel *> channels;
    std::vector<DimmId> targets;

    bool running = false;

    /** Per channel: a sweep or an interrupt handler is scheduled.
     * The host polls channels in parallel through independent MC
     * queues; Section IV-A notes the single-thread variant costs
     * less CPU, but the paper's Fig. 15 baseline occupancy
     * corresponds to parallel polling. */
    std::vector<bool> serviceOutstanding;

    std::set<DimmId> pendingTargets;

    /** Forward jobs queued at each DIMM, indexed by global id. */
    std::vector<std::vector<EventCallback>> queued;
    /** Emptied job list kept for its capacity (discover swaps it
     * with the target's queue instead of reallocating). */
    std::vector<EventCallback> spare;

    stats::Scalar &statInterrupts;
    stats::Scalar &statPolls;
    stats::Scalar &statIdlePolls;
    stats::Distribution &statDiscoveryPs;
    /** Tick at which each pending target raised its request. */
    std::vector<Tick> raisedAt;
};

} // namespace host
} // namespace dimmlink

#endif // DIMMLINK_HOST_POLLING_HH
