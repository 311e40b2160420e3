/**
 * @file
 * Rack-scale memory pooling: the inter-host fabric connecting N hosts
 * that share the pool of NMP-DIMM nodes (docs/rack.md). The DL groups
 * partition across the hosts; inter-group traffic whose endpoints live
 * under different hosts crosses this fabric, either host-forwarded
 * (source host's rack port -> switch hops -> destination host's rack
 * port, composed with the existing polling + Forwarder path at both
 * ends) or over pooled DIMM-Link bridge lanes connecting the hosts'
 * gateway pool nodes directly, bypassing both host CPUs.
 *
 * The fabric owns the rack-level availability state: each host's rack
 * port and each host's bridge attach run PR 5's LinkHealth state
 * machine (up -> suspect -> down, probe-driven recovery), fed by the
 * scheduled rack.hostDown* / rack.nodeDown* outages. The DlFabric
 * consults hostUp()/bridgeUp() per transfer and reroutes onto the
 * surviving path, counting rack.reroutes.
 */

#ifndef DIMMLINK_RACK_INTER_HOST_FABRIC_HH
#define DIMMLINK_RACK_INTER_HOST_FABRIC_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "fault/link_health.hh"
#include "sim/event_callback.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace rack {

class InterHostFabric
{
  public:
    InterHostFabric(EventQueue &eq, const SystemConfig &cfg,
                    stats::Registry &reg);

    /**
     * Switch hops every host-forwarded crossing pays: 2 under
     * rack.fabric "switch" (up to one central CXL switch and out of
     * it), 0 under "direct" (point-to-point cables between every host
     * pair, the fully-connected upper bound a real rack approximates
     * with multiple planes).
     */
    unsigned hops() const { return switchHops; }

    /** Is host @p h's rack port (and forwarding CPU) routable? */
    bool hostUp(unsigned h) const;
    /** Are both gateway bridge attaches of the @p a <-> @p b pooled
     * lane routable? */
    bool bridgeUp(unsigned a, unsigned b) const;
    /**
     * Does a cross-host request from @p a reach @p b? Mirrors
     * DlFabric::hostPathSend's failover: true while EITHER both rack
     * ports (forwarded path) or both gateway bridges (pooled path)
     * are up, and always for a == b. The serving circuit breaker
     * asks.
     */
    bool routeUp(unsigned a, unsigned b) const
    {
        return a == b || (hostUp(a) && hostUp(b)) || bridgeUp(a, b);
    }

    /**
     * Host-forwarded crossing: serialize @p bytes through host @p a's
     * egress port, cross latencyPs + hops() * switchHopPs of fabric,
     * serialize through host @p b's ingress port. @p done fires when
     * the payload has landed in host b's memory domain (the caller
     * then descends over b's channels via the Forwarder).
     */
    void crossing(unsigned a, unsigned b, std::uint64_t bytes,
                  EventCallback done);

    /**
     * Pooled-bridge crossing: serialize @p bytes on the directed
     * a -> b bridge lane at pooledGBps and pay the cable latency plus
     * one DL-Bridge hop at each gateway, with no host CPU or switch
     * involvement. @p done fires at the destination gateway.
     */
    void pooledSend(unsigned a, unsigned b, std::uint64_t bytes,
                    EventCallback done);

    /** The DlFabric flipped a transfer onto its failover route. */
    void noteReroute() { ++statReroutes; }

    /** One line per non-up rack edge, for hang diagnostics. */
    std::string debugDump() const;

  private:
    EventQueue &eventq;
    const SystemConfig &cfg;
    const unsigned switchHops;

    /** Synthetic far-end columns of the health graph: (host, kPort)
     * is the host's rack port, (host, kGateway) its bridge attach. */
    static constexpr int kPort = -1;
    static constexpr int kGateway = -2;

    using Edge = std::pair<int, int>;

    bool dead(const Edge &e) const;
    void scheduleOutage(Edge e, Tick at, Tick for_ps);
    /** The tick a transfer admitted onto @p e1 / @p e2 must park
     * until (0 = no parking: both edges live, or a dead edge's
     * outage is permanent and delivery keeps the pre-outage
     * semantics so fault-free paths never hang behind it). */
    Tick parkUntil(const Edge &e1, const Edge &e2) const;
    /** Claim the busy-until lane no earlier than @p not_before,
     * serialize @p bytes at @p gbps, and return the tick the last
     * byte leaves the lane. */
    Tick serialize(Tick &free_at, Tick not_before, double gbps,
                   std::uint64_t bytes);

    fault::LinkHealth health;
    /** Busy-until of each host's egress / ingress rack port. */
    std::vector<Tick> egressFreeAt;
    std::vector<Tick> ingressFreeAt;
    /** Busy-until of each directed pooled bridge lane. */
    std::map<Edge, Tick> laneFreeAt;
    /** Outage windows per health edge; second = end tick
     * (0 = permanent). */
    std::map<Edge, std::pair<Tick, Tick>> outage;

    stats::Scalar &statCrossings;
    stats::Scalar &statForwardedBytes;
    stats::Scalar &statPooledTransfers;
    stats::Scalar &statPooledBytes;
    stats::Scalar &statReroutes;
    stats::Scalar &statPortDown;
    stats::Scalar &statPortRecovered;
    stats::Scalar &statProbesSent;
    stats::Scalar &statProbesFailed;
    stats::Distribution &statCrossLatencyPs;
    stats::Scalar &statParked;
};

} // namespace rack
} // namespace dimmlink

#endif // DIMMLINK_RACK_INTER_HOST_FABRIC_HH
