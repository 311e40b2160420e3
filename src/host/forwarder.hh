/**
 * @file
 * The host-side FWD controller: after polling discovers a request,
 * a host forwarding thread fetches the packet over the source DIMM's
 * channel, decodes the destination, and stores the packet over the
 * destination DIMM's channel (Section III-D, inter-group transmission;
 * also the entire transport of the MCN baseline).
 */

#ifndef DIMMLINK_HOST_FORWARDER_HH
#define DIMMLINK_HOST_FORWARDER_HH

#include <vector>

#include "common/config.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "host/channel.hh"
#include "sim/event_callback.hh"
#include "sim/event_queue.hh"

namespace dimmlink {

namespace obs {
class Tracer;
} // namespace obs

namespace host {

class Forwarder
{
  public:
    Forwarder(EventQueue &eq, const SystemConfig &cfg,
              std::vector<Channel *> channels, stats::Registry &reg);

    /**
     * Move @p bytes of packet data from @p src DIMM to @p dst DIMM
     * through the host. @p delivered fires once the data has been
     * written into the destination DIMM's packet buffer.
     */
    void forward(DimmId src, DimmId dst, unsigned bytes,
                 EventCallback delivered);

    /** Jobs waiting for a forwarding thread. */
    std::size_t backlog() const { return jobs.size(); }

  private:
    struct Job
    {
        DimmId src = 0;
        DimmId dst = 0;
        unsigned bytes = 0;
        EventCallback delivered;
        std::uint64_t traceId = 0;
    };

    void pump();

    bool pumpScheduled = false;
    EventQueue &eventq;
    const SystemConfig &cfg;
    std::vector<Channel *> channels;
    Ring<Job> jobs;
    /** Busy-until tick of each host forwarding thread. */
    std::vector<Tick> workerFreeAt;

    stats::Scalar &statForwards;
    stats::Scalar &statBytes;
    stats::Distribution &statLatencyPs;

    obs::Tracer *tr = nullptr; ///< Null unless host tracing is on.
    std::uint32_t trk = 0;
    std::uint16_t nmForward = 0;
};

} // namespace host
} // namespace dimmlink

#endif // DIMMLINK_HOST_FORWARDER_HH
