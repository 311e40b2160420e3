/**
 * @file
 * The four host polling mechanisms of Table III. The engine models
 * when the host CPU learns that a DIMM holds forwarding requests, and
 * charges every polling read's bus occupancy to the right channel —
 * including the idle polling that never finds a request (the cost the
 * polling proxy exists to remove).
 *
 * PollingEngine is the shared machinery (the polling reads, discovery
 * accounting, pending-target bookkeeping); how the host *learns* that
 * a target needs attention is the pluggable part. The periodic modes
 * ("Base", "P-P") sweep each channel's targets every poll interval;
 * the ALERT_N modes ("Base+Itrpt", "P-P+Itrpt") sleep until a target
 * raises the shared interrupt line. makePollingEngine() builds the
 * one cfg.pollingMode names.
 */

#ifndef DIMMLINK_HOST_POLLING_HH
#define DIMMLINK_HOST_POLLING_HH

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "host/channel.hh"
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

    virtual ~PollingEngine() = default;

    /** Called with a polled DIMM id once the host notices it has
     * pending requests. */
    void setDiscoverHandler(std::function<void(DimmId)> h)
    {
        discoverHandler = std::move(h);
    }

    /** Enter NMP-Access mode: background polling begins. */
    void start();

    /** Leave NMP-Access mode: polling stops. */
    void stop();

    /**
     * A forwarding request is now pending at polled target @p target.
     * Under interrupt modes this raises ALERT_N on the target's
     * channel; otherwise the next sweep discovers it.
     */
    void requestRaised(DimmId target);

  protected:
    /** Begin the mode's discovery machinery (engine just started). */
    virtual void onStart() = 0;

    /** React to a newly pending target (engine is running). */
    virtual void onRequestRaised(DimmId target) = 0;

    /** Drop any in-flight discovery state (engine just stopped). */
    virtual void onStop() = 0;

    /** One polling read of @p target, starting no earlier than
     * @p earliest. @return the read's completion tick. */
    Tick pollOne(DimmId target, Tick earliest);

    /** True when any pending target sits on channel @p ch. */
    bool anyPendingOn(ChannelId ch) const
    {
        for (DimmId t : pendingTargets)
            if (cfg.channelOf(t) == ch)
                return true;
        return false;
    }

    EventQueue &eventq;
    const SystemConfig &cfg;
    std::vector<Channel *> channels;
    std::vector<DimmId> targets;

    bool running = false;

    stats::Scalar &statInterrupts;

  private:
    std::set<DimmId> pendingTargets;

    std::function<void(DimmId)> discoverHandler;

    stats::Scalar &statPolls;
    stats::Scalar &statIdlePolls;
    stats::Distribution &statDiscoveryPs;
    /** Tick at which each pending target raised its request. */
    std::vector<Tick> raisedAt;
};

/**
 * Build cfg.pollingMode's engine (polling_modes.cc) for the given
 * polled @p targets.
 */
std::unique_ptr<PollingEngine>
makePollingEngine(EventQueue &eq, const SystemConfig &cfg,
                  std::vector<Channel *> channels,
                  std::vector<DimmId> targets, stats::Registry &reg);

} // namespace host
} // namespace dimmlink

#endif // DIMMLINK_HOST_POLLING_HH
