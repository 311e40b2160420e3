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
      interrupt(cfg_.pollingMode == PollingMode::BaselineInterrupt ||
                cfg_.pollingMode == PollingMode::ProxyInterrupt),
      channels(std::move(channels_)),
      targets(std::move(targets_)),
      serviceOutstanding(channels.size(), false),
      queued(cfg_.numDimms),
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
    if (interrupt)
        return;
    // One polling loop per channel that has polled targets.
    for (ChannelId ch = 0; ch < channels.size(); ++ch)
        if (std::any_of(targets.begin(), targets.end(),
                        [&](DimmId t) { return cfg.channelOf(t) == ch; }))
            scheduleService(ch, eventq.now());
}

void
PollingEngine::stop()
{
    running = false;
    pendingTargets.clear();
    for (auto &q : queued)
        q.clear();
    // A handler already in flight still fires (and finds the engine
    // stopped); only ALERT_N forgets it, so a request raised after a
    // restart interrupts again at once.
    if (interrupt)
        serviceOutstanding.assign(channels.size(), false);
}

void
PollingEngine::request(DimmId target, EventCallback job)
{
    if (std::find(targets.begin(), targets.end(), target) ==
        targets.end())
        panic("request raised at DIMM %u which is not a polled target",
              target);
    queued[target].push_back(std::move(job));
    if (pendingTargets.count(target))
        return;
    pendingTargets.insert(target);
    raisedAt[target] = eventq.now();
    // ALERT_N is shared per channel: one handler invocation scans the
    // whole channel (Base+Itrpt) or its proxy (P-P+Itrpt). Periodic
    // sweeps find the request on their own.
    if (interrupt)
        scheduleService(cfg.channelOf(target),
                        eventq.now() + cfg.host.interruptLatencyPs);
}

void
PollingEngine::scheduleService(ChannelId ch, Tick when)
{
    if (serviceOutstanding[ch])
        return;
    serviceOutstanding[ch] = true;
    if (interrupt)
        ++statInterrupts;
    eventq.schedule(std::max(when, eventq.now()),
                    [this, ch] {
                        serviceOutstanding[ch] = false;
                        service(ch);
                    },
                    EventPriority::Control);
}

void
PollingEngine::service(ChannelId ch)
{
    if (!running)
        return;
    // Poll this channel's targets back-to-back. Distinct channels
    // poll concurrently.
    const Tick begin = eventq.now();
    Tick cursor = begin;
    for (DimmId target : targets)
        if (cfg.channelOf(target) == ch)
            cursor = pollOne(target, cursor);
    if (!interrupt)
        scheduleService(ch,
                        std::max(begin + cfg.host.pollIntervalPs, cursor));
    else if (anyPendingOn(ch))
        scheduleService(ch, eventq.now() + cfg.host.interruptLatencyPs);
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
                        if (running)
                            discover(target);
                    },
                    EventPriority::Control);
    return end;
}

void
PollingEngine::discover(DimmId target)
{
    // Jobs may queue new requests (at this or any target) while they
    // run, so detach the list first; the spare's capacity replaces it.
    std::vector<EventCallback> jobs = std::move(spare);
    jobs.swap(queued[target]);
    for (auto &job : jobs)
        job();
    jobs.clear();
    spare = std::move(jobs);
}

bool
PollingEngine::anyPendingOn(ChannelId ch) const
{
    for (DimmId t : pendingTargets)
        if (cfg.channelOf(t) == ch)
            return true;
    return false;
}

} // namespace host
} // namespace dimmlink
