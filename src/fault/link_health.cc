#include "fault/link_health.hh"

#include <sstream>

#include "common/log.hh"

namespace dimmlink {
namespace fault {

const char *
toString(LinkState s)
{
    switch (s) {
      case LinkState::Up: return "up";
      case LinkState::Suspect: return "suspect";
      case LinkState::Down: return "down";
    }
    return "?";
}

LinkHealth::LinkHealth(EventQueue &eq, unsigned suspect_after,
                       Tick reprobe_interval, Tick probe_timeout)
    : eventq(eq),
      suspectAfter(suspect_after),
      reprobeInterval(reprobe_interval),
      probeTimeout(probe_timeout)
{
}

void
LinkHealth::addEdge(int a, int b)
{
    edges.emplace(Key{a, b}, Edge{});
}

void
LinkHealth::transition(const Key &k, Edge &e, LinkState to)
{
    if (e.state == to)
        return;
    const LinkState from = e.state;
    e.state = to;
    if (to == LinkState::Up)
        e.consecFails = 0;
    if (cbs.onTransition)
        cbs.onTransition(k.first, k.second, from, to);
}

void
LinkHealth::sendProbeNow(const Key &k, Edge &e)
{
    if (e.outstandingProbe != 0)
        return; // One probe in flight per edge at a time.
    const std::uint64_t id = nextProbeId++;
    e.outstandingProbe = id;
    e.timeoutEv = eventq.scheduleIn(
        probeTimeout,
        [this, k, id] {
            auto it = edges.find(k);
            if (it == edges.end() ||
                it->second.outstandingProbe != id)
                return; // Probe already resolved.
            it->second.outstandingProbe = 0;
            it->second.timeoutEv = 0;
            probeFailed(k, it->second);
        },
        EventPriority::Control);
    if (cbs.sendProbe)
        cbs.sendProbe(k.first, k.second, id);
}

void
LinkHealth::probeFailed(const Key &k, Edge &e)
{
    if (cbs.onProbeFailed)
        cbs.onProbeFailed(k.first, k.second);
    // A suspect edge that fails its probe is confirmed down; a down
    // edge just stays down. Either way, keep probing for recovery.
    if (e.state == LinkState::Suspect)
        transition(k, e, LinkState::Down);
    scheduleReprobe(k, e);
}

void
LinkHealth::scheduleReprobe(const Key &k, Edge &e)
{
    if (e.reprobePending)
        return;
    e.reprobePending = true;
    eventq.scheduleIn(
        reprobeInterval,
        [this, k] {
            auto it = edges.find(k);
            if (it == edges.end())
                return;
            it->second.reprobePending = false;
            if (it->second.state != LinkState::Up)
                sendProbeNow(k, it->second);
        },
        EventPriority::Control);
}

void
LinkHealth::noteExhausted(const std::vector<std::pair<int, int>> &path)
{
    for (const auto &edge : path) {
        auto it = edges.find(edge);
        if (it == edges.end())
            continue;
        Edge &e = it->second;
        if (e.state != LinkState::Up)
            continue; // Probes own the edge once it leaves Up.
        if (++e.consecFails < suspectAfter)
            continue;
        transition(edge, e, LinkState::Suspect);
        sendProbeNow(edge, e);
    }
}

void
LinkHealth::noteSuccess(const std::vector<std::pair<int, int>> &path)
{
    for (const auto &edge : path) {
        auto it = edges.find(edge);
        if (it == edges.end())
            continue;
        if (it->second.state == LinkState::Up)
            it->second.consecFails = 0;
    }
}

void
LinkHealth::probeResult(int a, int b, std::uint64_t probe_id,
                        bool clean)
{
    auto it = edges.find(Key{a, b});
    if (it == edges.end())
        return;
    Edge &e = it->second;
    if (e.outstandingProbe != probe_id)
        return; // Stale: a timeout or newer probe superseded it.
    e.outstandingProbe = 0;
    if (e.timeoutEv != 0) {
        eventq.deschedule(e.timeoutEv);
        e.timeoutEv = 0;
    }
    if (clean)
        transition(Key{a, b}, e, LinkState::Up);
    else
        probeFailed(Key{a, b}, e);
}

LinkState
LinkHealth::state(int a, int b) const
{
    const auto it = edges.find(Key{a, b});
    return it == edges.end() ? LinkState::Up : it->second.state;
}

std::size_t
LinkHealth::numSuspectOrDown() const
{
    std::size_t n = 0;
    for (const auto &kv : edges)
        if (kv.second.state != LinkState::Up)
            ++n;
    return n;
}

std::string
LinkHealth::dump() const
{
    std::ostringstream os;
    for (const auto &kv : edges) {
        if (kv.second.state == LinkState::Up)
            continue;
        os << "  link " << kv.first.first << "->" << kv.first.second
           << ": " << toString(kv.second.state) << " (consecFails="
           << kv.second.consecFails << ", probeInFlight="
           << (kv.second.outstandingProbe != 0 ? "yes" : "no")
           << ")\n";
    }
    return os.str();
}

} // namespace fault
} // namespace dimmlink
