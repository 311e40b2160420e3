/**
 * @file
 * One DL group's interconnect: the TopologyGraph, a Router per DIMM
 * and a pair of unidirectional Links per adjacent DIMM pair, assembled
 * and exposed through a small injection/ejection API.
 */

#ifndef DIMMLINK_NOC_NETWORK_HH
#define DIMMLINK_NOC_NETWORK_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "noc/link.hh"
#include "noc/message.hh"
#include "noc/router.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace noc {

class Network
{
  public:
    /**
     * @param faults  when non-null, each link gets the configured
     *                fault model (seeded from its own name) attached
     *                at construction.
     */
    Network(EventQueue &eq, std::string name, const LinkConfig &cfg,
            unsigned nodes, stats::Registry &registry,
            const FaultConfig *faults = nullptr);

    /**
     * Try to inject @p msg at node msg.src. On success the message is
     * moved into the network; @return false when the injection port
     * is out of buffer space (counted in injectBlocked), leaving
     * @p msg untouched for the caller to offer again.
     */
    bool tryInject(Message &msg);

    /**
     * Inject @p msg at node msg.src; never refuses. When the
     * injection port is full, or messages already wait at that node,
     * @p msg joins the node's FIFO, which drains whenever the node's
     * router pops a port. injectBlocked counts each refused attempt,
     * none for a message queued behind others.
     */
    void inject(Message msg);

    const TopologyGraph &graph() const { return topo; }
    unsigned numNodes() const { return topo.numNodes(); }

    /**
     * Mask the directed link @p a -> @p b down (or up) and recompute
     * the group's routing tables and broadcast trees in place; every
     * router sees the new tables on its next forwarding decision.
     */
    void setLinkDown(int a, int b, bool down)
    {
        topo.setEdgeDown(a, b, down);
    }

    /** The physical link driving @p a -> @p b (null when the pair is
     * not adjacent). Health probes transmit on it directly. */
    Link *linkBetween(int a, int b) const
    {
        const auto it = linkOf.find({a, b});
        return it == linkOf.end() ? nullptr : it->second;
    }

  private:
    /** The router of msg.src (panics on a bad node). */
    Router &sourceRouter(const Message &msg);

    std::string name_;
    LinkConfig cfg;
    TopologyGraph topo;
    std::vector<std::unique_ptr<Router>> routers;
    std::vector<std::unique_ptr<Link>> links;
    std::map<std::pair<int, int>, Link *> linkOf;
    stats::Scalar &statInjected;
    stats::Scalar &statInjectBlocked;
    stats::Distribution &statLatencyPs;
};

} // namespace noc
} // namespace dimmlink

#endif // DIMMLINK_NOC_NETWORK_HH
