#include "host/forwarder.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/tracer.hh"

namespace dimmlink {
namespace host {

Forwarder::Forwarder(EventQueue &eq, const SystemConfig &cfg_,
                     std::vector<Channel *> channels_,
                     stats::Registry &reg)
    : eventq(eq),
      cfg(cfg_),
      channels(std::move(channels_)),
      workerFreeAt(std::max(1u, cfg_.host.pollThreads), 0),
      statForwards(reg.group("host.forwarder").scalar("forwards")),
      statBytes(reg.group("host.forwarder").scalar("bytes")),
      statLatencyPs(
          reg.group("host.forwarder").distribution("latencyPs"))
{
    if (auto *t = eq.tracer(); t && t->enabled(obs::CatHost)) {
        tr = t;
        trk = t->track("host.forwarder", obs::CatHost);
        nmForward = t->intern("forward");
    }
}

void
Forwarder::forward(DimmId src, DimmId dst, unsigned bytes,
                   EventCallback delivered)
{
    Job job{src, dst, bytes, std::move(delivered), 0};
    if (tr) {
        job.traceId = tr->nextAsyncId();
        tr->asyncBegin(trk, nmForward, eventq.now(), job.traceId);
    }
    jobs.push_back(std::move(job));
    pump();
}

void
Forwarder::pump()
{
    // Paced, pipelined forwarding: a worker spends forwardIssuePs of
    // host time per packet issuing the copy; the load and store
    // themselves pipeline through the memory-controller queues, so
    // channel time is reserved at most one issue ahead per worker
    // (polling reads never starve behind a speculative backlog).
    while (!jobs.empty()) {
        auto worker = std::min_element(workerFreeAt.begin(),
                                       workerFreeAt.end());
        if (*worker > eventq.now()) {
            if (!pumpScheduled) {
                pumpScheduled = true;
                eventq.schedule(*worker,
                                [this] {
                                    pumpScheduled = false;
                                    pump();
                                },
                                EventPriority::Control);
            }
            return;
        }
        Job job = std::move(jobs.front());
        jobs.pop_front();

        const Tick begin = eventq.now();
        *worker = begin + cfg.host.forwardIssuePs;

        // Load from the source DIMM's channel into the host cache
        // hierarchy...
        Channel &src_ch = *channels[cfg.channelOf(job.src)];
        const Tick loaded =
            src_ch.occupy(serializationTicks(job.bytes,
                                             src_ch.bandwidthGBps()),
                          begin);
        // ... decode the destination id (fixed host latency) ...
        const Tick processed = loaded + cfg.host.forwardLatencyPs;
        // ... and store to the destination DIMM's channel.
        Channel &dst_ch = *channels[cfg.channelOf(job.dst)];
        const Tick stored =
            dst_ch.occupy(serializationTicks(job.bytes,
                                             dst_ch.bandwidthGBps()),
                          processed);

        ++statForwards;
        statBytes += job.bytes;
        statLatencyPs.sample(static_cast<double>(stored - begin));
        if (tr)
            tr->asyncEnd(trk, nmForward, stored, job.traceId);

        if (job.delivered)
            eventq.schedule(stored, std::move(job.delivered),
                            EventPriority::Delivery);
    }
}

} // namespace host
} // namespace dimmlink
