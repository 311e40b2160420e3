#include "host/polling.hh"

#include <algorithm>

#include "common/log.hh"

namespace dimmlink {
namespace host {

PollingEngine::PollingEngine(EventQueue &eq, const SystemConfig &cfg_,
                             std::vector<Channel *> channels_,
                             std::vector<DimmId> targets_,
                             stats::Registry &reg)
    : eventq(eq),
      cfg(cfg_),
      channels(std::move(channels_)),
      targets(std::move(targets_)),
      statInterrupts(reg.group("host.polling").scalar("interrupts")),
      statPolls(reg.group("host.polling").scalar("polls")),
      statIdlePolls(reg.group("host.polling").scalar("idlePolls")),
      statDiscoveryPs(
          reg.group("host.polling").distribution("discoveryPs")),
      raisedAt(cfg_.numDimms, 0)
{
    if (targets.empty())
        fatal("polling engine needs at least one target DIMM");
}

void
PollingEngine::start()
{
    if (running)
        return;
    running = true;
    onStart();
}

void
PollingEngine::stop()
{
    running = false;
    pendingTargets.clear();
    onStop();
}

void
PollingEngine::requestRaised(DimmId target)
{
    if (std::find(targets.begin(), targets.end(), target) ==
        targets.end())
        panic("request raised at DIMM %u which is not a polled target",
              target);
    if (pendingTargets.count(target))
        return;
    pendingTargets.insert(target);
    raisedAt[target] = eventq.now();
    onRequestRaised(target);
}

Tick
PollingEngine::pollOne(DimmId target, Tick earliest)
{
    Channel &ch = *channels[cfg.channelOf(target)];
    const Tick end = ch.occupy(cfg.host.pollChannelPs, earliest);
    ++statPolls;
    const bool found = pendingTargets.count(target) > 0;
    if (!found) {
        ++statIdlePolls;
        return end;
    }
    pendingTargets.erase(target);
    statDiscoveryPs.sample(static_cast<double>(end - raisedAt[target]));
    eventq.schedule(end,
                    [this, target] {
                        if (running && discoverHandler)
                            discoverHandler(target);
                    },
                    EventPriority::Control);
    return end;
}

} // namespace host
} // namespace dimmlink
