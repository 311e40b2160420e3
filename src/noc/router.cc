#include "noc/router.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/tracer.hh"

namespace dimmlink {
namespace noc {

Router::Router(EventQueue &eq, std::string name, int node,
               const TopologyGraph &graph_, unsigned buffer_flits,
               Tick router_latency_ps, stats::Group &sg,
               stats::Distribution &latency, stats::Scalar &injected,
               stats::Scalar &inject_blocked)
    : eventq(eq),
      name_(std::move(name)),
      node_(node),
      graph(graph_),
      bufferFlits(buffer_flits),
      routerLatency(router_latency_ps),
      latencyPs(latency),
      statInjected(injected),
      statInjectBlocked(inject_blocked),
      statForwarded(sg.scalar("forwarded")),
      statEjected(sg.scalar("ejected")),
      statBlockedCredits(sg.scalar("blockedOnCredits")),
      statDroppedUnroutable(sg.scalar("droppedUnroutable"))
{
    if (auto *t = eq.tracer(); t && t->enabled(obs::CatNoc)) {
        tr = t;
        trk = t->track(name_, obs::CatNoc);
        nmCreditBlock = t->intern("creditBlock");
    }
    // One input port per incoming neighbor link plus the local
    // injection port.
    const auto nodes = static_cast<std::size_t>(graph.numNodes());
    portOfNode.assign(nodes, noPort);
    outputs.assign(nodes, Output{});
    ports.push_back(Port{injectPort, {}, 0, 0, {}, false});
    for (int nb : graph.neighbors(node)) {
        portOfNode[static_cast<std::size_t>(nb)] = ports.size();
        ports.push_back(Port{nb, {}, 0, 0, {}, false});
    }
}

void
Router::connectOutput(int neighbor, Link *link, Router *downstream)
{
    outputs.at(static_cast<std::size_t>(neighbor)) =
        Output{link, downstream};
}

std::size_t
Router::portIndex(int from_node) const
{
    if (from_node == injectPort)
        return 0;
    const auto i = static_cast<std::size_t>(from_node);
    if (from_node < 0 || i >= portOfNode.size() ||
        portOfNode[i] == noPort)
        panic("router %s: no port for node %d", name_.c_str(),
              from_node);
    return portOfNode[i];
}

bool
Router::canAccept(unsigned flits, int from_node) const
{
    const Port &p = ports[portIndex(from_node)];
    return p.usedFlits + flits <= bufferFlits;
}

bool
Router::tryInject(Message &msg)
{
    if (!canAccept(msg.flits, injectPort)) {
        ++statInjectBlocked;
        return false;
    }
    msg.injectedAt = eventq.now();
    ++statInjected;
    Port &p = ports[portIndex(injectPort)];
    p.usedFlits += msg.flits;
    p.q.push_back(std::move(msg));
    ++arrived;
    scheduleKick(eventq.now() + routerLatency);
    return true;
}

void
Router::inject(Message msg)
{
    if (!injectBacklog.empty() || !tryInject(msg))
        injectBacklog.push_back(std::move(msg));
}

void
Router::scheduleKick(Tick when)
{
    const Tick now = eventq.now();
    if (when < now)
        when = now;
    if (kickReserved)
        settleReservedKick();
    if (kickScheduled && kickAt <= when)
        return;
    if (kickScheduled)
        eventq.deschedule(kickEventId);
    kickScheduled = true;
    kickAt = when;
    // A pass now with nothing arrived would find every port empty
    // unless a message lands first, and a landing asks for a kick.
    if (when == now && arrived == 0) {
        kickSeq = eventq.reserveSeq(when, EventPriority::Control);
        kickReserved = kickSeq != EventQueue::noSeq;
        if (kickReserved)
            return;
    }
    kickEventId = eventq.schedule(when, [this] { runKick(); },
                                  EventPriority::Control);
}

void
Router::settleReservedKick()
{
    if (eventq.passed(kickAt, EventPriority::Control, kickSeq)) {
        // An empty pass only ends the pending kick and rotates the
        // arbitration start.
        kickReserved = false;
        kickScheduled = false;
        rrNext = (rrNext + 1) % ports.size();
    } else if (arrived > 0) {
        kickReserved = false;
        kickEventId = eventq.scheduleReserved(
            kickAt, kickSeq, [this] { runKick(); },
            EventPriority::Control);
    }
}

void
Router::runKick()
{
    kickScheduled = false;
    forward();
}

void
Router::kick()
{
    scheduleKick(eventq.now());
}

bool
Router::sendCopy(Message &msg, int next_hop, bool from_injection,
                 bool copy)
{
    const auto hop = static_cast<std::size_t>(next_hop);
    if (next_hop < 0 || hop >= outputs.size() || !outputs[hop].link)
        panic("router %s: no output toward node %d", name_.c_str(),
              next_hop);
    Output &out = outputs[hop];
    if (out.link->freeAt() > eventq.now()) {
        // Link busy: retry when it frees up.
        scheduleKick(out.link->freeAt());
        return false;
    }
    // Bubble flow control: injected messages on cyclic topologies
    // must leave one max-packet bubble downstream.
    const unsigned reserve =
        (from_injection && graph.cyclic()) ? bubbleReserve : 0;
    if (!out.downstream->canAccept(msg.flits + reserve, node_)) {
        // Out of credits: the downstream router kicks us on release.
        ++statBlockedCredits;
        if (tr)
            tr->instant(trk, nmCreditBlock, eventq.now(), msg.flits);
        return false;
    }
    // Take the downstream buffer space now (credit leaves with the
    // flits), put the message there and transmit it in place; it
    // counts as in flight until the link delivers it.
    Router *down = out.downstream;
    const std::size_t dport = down->portIndex(node_);
    Port &in = down->ports[dport];
    in.usedFlits += msg.flits;
    in.q.push_back(copy ? Message(msg) : std::move(msg));
    ++in.inFlight;
    const Tick arrival = out.link->transmit(in.q.back());
    eventq.schedule(arrival,
                    [down, dport] {
                        --down->ports[dport].inFlight;
                        ++down->arrived;
                        down->scheduleKick(down->eventq.now() +
                                           down->routerLatency);
                    },
                    EventPriority::Delivery);
    ++statForwarded;
    return true;
}

void
Router::popHead(Port &port)
{
    const unsigned flits = port.q.front().flits;
    port.q.pop_front();
    --arrived;
    if (port.usedFlits < flits)
        panic("router %s: flit accounting underflow", name_.c_str());
    port.usedFlits -= flits;
    port.headChildrenValid = false;
    port.headChildren.clear();
    notifyUpstream();
}

void
Router::notifyUpstream()
{
    // Freed credits: wake every router with a link into us (the
    // bridge is bidirectional, so those are exactly our neighbors),
    // plus the local injector.
    for (int nb : graph.neighbors(node_)) {
        if (Router *up = outputs[static_cast<std::size_t>(nb)].downstream)
            up->kick();
    }
    while (!injectBacklog.empty() && tryInject(injectBacklog.front()))
        injectBacklog.pop_front();
}

bool
Router::tryPort(Port &port)
{
    if (!hasArrived(port))
        return false;
    Message &m = port.q.front();

    if (m.broadcast) {
        if (!port.headChildrenValid) {
            port.headChildren = graph.broadcastChildren(m.src, node_);
            port.headChildrenValid = true;
        }
        // Forward to each remaining tree child; eject once all copies
        // have left.
        while (!port.headChildren.empty()) {
            const int child = port.headChildren.back();
            if (!sendCopy(m, child, port.fromNode == injectPort,
                          /*copy=*/true))
                return false;
            port.headChildren.pop_back();
        }
        Message msg = std::move(m);
        popHead(port);
        eject(std::move(msg));
        return true;
    }

    if (m.dst == node_) {
        Message msg = std::move(m);
        popHead(port);
        eject(std::move(msg));
        return true;
    }

    const int next = graph.nextHop(node_, m.dst);
    if (next == -1) {
        // The destination became unreachable while the message was in
        // flight (a link failed and the tables recomputed without a
        // route). Drop it: DLL-protected traffic recovers through the
        // sender's retry timeout and the exhaustion policy; senders
        // without retries install onDropped as their fallback.
        ++statDroppedUnroutable;
        Message msg = std::move(m);
        popHead(port);
        if (msg.onDropped)
            msg.onDropped();
        return true;
    }
    if (!sendCopy(m, next, port.fromNode == injectPort,
                  /*copy=*/false))
        return false;
    popHead(port);
    return true;
}

void
Router::eject(Message msg)
{
    ++statEjected;
    latencyPs.sample(static_cast<double>(eventq.now() - msg.injectedAt));
    if (msg.deliver)
        msg.deliver(node_);
}

void
Router::forward()
{
    // One arbitration pass: every port may move its head message.
    // Round-robin starting point for fairness under contention.
    const std::size_t n = ports.size();
    bool any_left = false;
    for (std::size_t i = 0; i < n; ++i) {
        Port &port = ports[(rrNext + i) % n];
        tryPort(port);
        if (hasArrived(port))
            any_left = true;
    }
    rrNext = (rrNext + 1) % n;
    if (any_left) {
        // Blocked heads are re-kicked by link-free or credit-release
        // callbacks; a conservative periodic retry guards rare cases.
        scheduleKick(eventq.now() + routerLatency);
    }
}

} // namespace noc
} // namespace dimmlink
