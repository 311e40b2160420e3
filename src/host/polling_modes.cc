/**
 * @file
 * The two polling engines. "Base" and "P-P" share the periodic sweep
 * engine (they differ only in the target set the caller passes);
 * "Base+Itrpt" and "P-P+Itrpt" share the ALERT_N engine the same way.
 */

#include <set>

#include "common/log.hh"
#include "host/polling.hh"

namespace dimmlink {
namespace host {

namespace {

/** Periodic sweeps: poll every target on a channel back-to-back,
 * then sleep until the next poll interval. */
class PeriodicPollingEngine : public PollingEngine
{
  public:
    PeriodicPollingEngine(EventQueue &eq, const SystemConfig &cfg,
                          std::vector<Channel *> channels_,
                          std::vector<DimmId> targets_,
                          stats::Registry &reg)
        : PollingEngine(eq, cfg, std::move(channels_),
                        std::move(targets_), reg)
    {
        sweepScheduled.assign(channels.size(), false);
    }

  protected:
    void
    onStart() override
    {
        // One polling loop per channel that has polled targets.
        std::set<ChannelId> chans;
        for (DimmId t : targets)
            chans.insert(cfg.channelOf(t));
        for (ChannelId ch : chans)
            scheduleSweep(ch, eventq.now());
    }

    void onRequestRaised(DimmId) override
    {
        // The periodic sweep will find it.
    }

    void onStop() override {}

  private:
    void
    scheduleSweep(ChannelId ch, Tick when)
    {
        if (sweepScheduled[ch])
            return;
        sweepScheduled[ch] = true;
        eventq.schedule(std::max(when, eventq.now()),
                        [this, ch] {
                            sweepScheduled[ch] = false;
                            sweep(ch);
                        },
                        EventPriority::Control);
    }

    void
    sweep(ChannelId ch)
    {
        if (!running)
            return;
        // Poll this channel's targets back-to-back, then sleep until
        // the next period. Distinct channels poll concurrently.
        const Tick sweep_start = eventq.now();
        Tick cursor = sweep_start;
        for (DimmId target : targets)
            if (cfg.channelOf(target) == ch)
                cursor = pollOne(target, cursor);
        const Tick next =
            std::max(sweep_start + cfg.host.pollIntervalPs, cursor);
        scheduleSweep(ch, next);
    }

    /** Per-channel sweep-scheduled flags (the host polls channels in
     * parallel through independent MC queues; Section IV-A notes the
     * single-thread variant costs less CPU but the paper's Fig. 15
     * baseline occupancy corresponds to parallel polling). */
    std::vector<bool> sweepScheduled;
};

/** ALERT_N: the host sleeps until a target raises the shared
 * per-channel interrupt line, then scans that channel's targets. */
class InterruptPollingEngine : public PollingEngine
{
  public:
    using PollingEngine::PollingEngine;

  protected:
    void onStart() override {}

    void
    onRequestRaised(DimmId target) override
    {
        // ALERT_N is shared per channel: one handler invocation scans
        // the whole channel (Base+Itrpt) or its proxy (P-P+Itrpt).
        const ChannelId ch = cfg.channelOf(target);
        if (interruptsInFlight.count(ch))
            return;
        raiseAlert(ch);
    }

    void onStop() override { interruptsInFlight.clear(); }

  private:
    void
    raiseAlert(ChannelId ch)
    {
        interruptsInFlight.insert(ch);
        ++statInterrupts;
        eventq.scheduleIn(cfg.host.interruptLatencyPs,
                          [this, ch] { serveInterrupt(ch); },
                          EventPriority::Control);
    }

    void
    serveInterrupt(ChannelId ch)
    {
        interruptsInFlight.erase(ch);
        if (!running)
            return;
        // Scan every polled target that shares the interrupting
        // channel; re-raise when a request slipped in meanwhile.
        Tick cursor = eventq.now();
        for (DimmId target : targets) {
            if (cfg.channelOf(target) != ch)
                continue;
            cursor = pollOne(target, cursor);
        }
        if (anyPendingOn(ch))
            raiseAlert(ch);
    }

    /** Channels with an ALERT_N raised and a handler in flight. */
    std::set<ChannelId> interruptsInFlight;
};

} // namespace

std::unique_ptr<PollingEngine>
makePollingEngine(EventQueue &eq, const SystemConfig &cfg,
                  std::vector<Channel *> channels,
                  std::vector<DimmId> targets, stats::Registry &reg)
{
    switch (cfg.pollingMode) {
      case PollingMode::Baseline:
      case PollingMode::Proxy:
        return std::make_unique<PeriodicPollingEngine>(
            eq, cfg, std::move(channels), std::move(targets), reg);
      case PollingMode::BaselineInterrupt:
      case PollingMode::ProxyInterrupt:
        return std::make_unique<InterruptPollingEngine>(
            eq, cfg, std::move(channels), std::move(targets), reg);
    }
    panic("unknown polling mode %d", static_cast<int>(cfg.pollingMode));
}

} // namespace host
} // namespace dimmlink
