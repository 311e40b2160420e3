/**
 * @file
 * The DL-Router inside each DIMM's DL-Controller. Input-buffered with
 * flit-denominated credits, round-robin port arbitration, deterministic
 * shortest-path unicast and spanning-tree broadcast forwarding.
 */

#ifndef DIMMLINK_NOC_ROUTER_HH
#define DIMMLINK_NOC_ROUTER_HH

#include <cstddef>
#include <vector>

#include "common/ring.hh"
#include "common/stats.hh"
#include "noc/link.hh"
#include "noc/message.hh"
#include "noc/topology.hh"
#include "proto/packet.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace noc {

class Router
{
  public:
    /** Port index of the local injection queue. */
    static constexpr int injectPort = -1;

    /**
     * Every ejection's network latency (eject tick minus
     * Message::injectedAt) is sampled into @p latency: once per
     * unicast, once per ejecting node of a broadcast, never for a
     * dropped message. Accepted and refused injection attempts count
     * into @p injected and @p inject_blocked.
     */
    Router(EventQueue &eq, std::string name, int node,
           const TopologyGraph &graph, unsigned buffer_flits,
           Tick router_latency_ps, stats::Group &sg,
           stats::Distribution &latency, stats::Scalar &injected,
           stats::Scalar &inject_blocked);

    /** Wire an output toward neighbor @p node. */
    void connectOutput(int neighbor, Link *link, Router *downstream);

    /** Move @p msg into the injection port if it has room; otherwise
     * count a refusal and leave @p msg untouched. */
    bool tryInject(Message &msg);

    /** Inject @p msg, or queue it behind the messages already waiting
     * here; the queue drains whenever this router pops a port. */
    void inject(Message msg);

    /**
     * Ask for an arbitration pass at this tick (idempotent,
     * reentrant-safe via event scheduling). A router with no arrived
     * message only reserves the pass's place in the event order: the
     * pass is scheduled under that key if a message lands before the
     * kernel gets there, and otherwise reduces to advancing the
     * round-robin start, which the next kick request applies.
     */
    void kick();

    int node() const { return node_; }

  private:
    /**
     * An input buffer. A message enters q when the upstream router
     * sends it and is transmitted in place; the last inFlight entries
     * are still on the wire. One link feeds the port and its arrival
     * ticks never decrease, so messages arrive in q's order and the
     * arrived ones are a prefix.
     */
    struct Port
    {
        int fromNode;
        Ring<Message> q;
        std::size_t inFlight = 0;
        unsigned usedFlits = 0;
        /** Remaining broadcast children for the head message. */
        std::vector<int> headChildren;
        bool headChildrenValid = false;
    };

    struct Output
    {
        Link *link = nullptr;
        Router *downstream = nullptr;
    };

    /** Space (in flits) available on the port fed by @p from_node. */
    bool canAccept(unsigned flits, int from_node) const;

    /** True if @p port holds a message that has arrived. */
    static bool
    hasArrived(const Port &port)
    {
        return port.q.size() > port.inFlight;
    }

    void scheduleKick(Tick when);
    /** Resolve a pending reserved kick: if the kernel went past its
     * key, apply the empty pass it stood for; if a message has arrived
     * since, schedule the pass under that key. */
    void settleReservedKick();
    /** The kick event: one arbitration pass. */
    void runKick();
    void forward();
    /** True if the head of @p port made progress. */
    bool tryPort(Port &port);
    /**
     * Send @p msg toward @p next_hop; true when it left the port.
     * The message goes straight into the downstream port, in flight
     * until the link delivers it. A unicast hop moves the message out
     * (the caller then pops the moved-from head); a broadcast child
     * (@p copy) gets a copy so the original can still feed its
     * siblings and eject here.
     * Messages entering a cyclic topology from the injection port
     * must leave a bubble (one max packet of spare buffer) in the
     * downstream port -- bubble flow control keeps the rings
     * deadlock-free.
     */
    bool sendCopy(Message &msg, int next_hop, bool from_injection,
                  bool copy);
    /** Hand an ejected message to its sender's deliver callback. */
    void eject(Message msg);
    /** Pop @p port's head, which may have been moved from: only its
     * flit count is read. */
    void popHead(Port &port);
    /** Index into ports of the input fed by @p from_node. */
    std::size_t portIndex(int from_node) const;
    /** A port freed space: wake the neighbors, then move waiting
     * injections in. */
    void notifyUpstream();

    EventQueue &eventq;
    std::string name_;
    int node_;
    const TopologyGraph &graph;
    unsigned bufferFlits;
    /** Bubble size for injections on cyclic topologies: one maximal
     * DL packet (17 flits). */
    static constexpr unsigned bubbleReserve =
        proto::flitsFor(proto::maxPayloadBytes);
    Tick routerLatency;

    std::vector<Port> ports;
    /** Input port of each neighbor node; noPort for non-neighbors.
     * The injection port is always ports[0]. */
    static constexpr std::size_t noPort = ~std::size_t{0};
    std::vector<std::size_t> portOfNode;
    /** Output toward each node; a null link marks non-neighbors. */
    std::vector<Output> outputs;
    std::size_t rrNext = 0;

    /** Messages in ports that have arrived (not in flight). */
    std::size_t arrived = 0;

    /** A kick is pending at kickAt: an event (kickEventId) or, when
     * kickReserved, only its key in the event order (kickSeq). */
    bool kickScheduled = false;
    bool kickReserved = false;
    Tick kickAt = 0;
    std::uint64_t kickEventId = 0;
    std::uint64_t kickSeq = 0;

    /** Messages waiting for injection-port space, oldest first. */
    Ring<Message> injectBacklog;

    stats::Distribution &latencyPs;
    stats::Scalar &statInjected;
    stats::Scalar &statInjectBlocked;
    stats::Scalar &statForwarded;
    stats::Scalar &statEjected;
    stats::Scalar &statBlockedCredits;
    /** Messages dropped for lack of a live route. */
    stats::Scalar &statDroppedUnroutable;

    obs::Tracer *tr = nullptr; ///< Null unless noc tracing is on.
    std::uint32_t trk = 0;
    std::uint16_t nmCreditBlock = 0;
};

} // namespace noc
} // namespace dimmlink

#endif // DIMMLINK_NOC_ROUTER_HH
