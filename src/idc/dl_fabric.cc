#include "idc/dl_fabric.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/log.hh"
#include "obs/tracer.hh"
#include "rack/inter_host_fabric.hh"

namespace dimmlink {
namespace idc {

namespace {

/** Flits for one packet carrying @p bytes of payload. */
unsigned
flitsFor(std::uint64_t bytes)
{
    return 1 + static_cast<unsigned>(
                   (bytes + proto::flitBytes - 1) / proto::flitBytes);
}

/** Polling targets: one proxy per group, or every DIMM. */
std::vector<DimmId>
pollTargets(const SystemConfig &cfg)
{
    std::vector<DimmId> v;
    const bool proxy = cfg.pollingMode == PollingMode::Proxy ||
                       cfg.pollingMode == PollingMode::ProxyInterrupt;
    if (proxy) {
        for (unsigned g = 0; g < cfg.numGroups(); ++g)
            v.push_back(static_cast<DimmId>(g * cfg.groupSize() +
                                            cfg.groupSize() / 2));
    } else {
        for (unsigned d = 0; d < cfg.numDimms; ++d)
            v.push_back(static_cast<DimmId>(d));
    }
    return v;
}

} // namespace

DlFabric::DlFabric(EventQueue &eq, const SystemConfig &cfg_,
                   std::vector<host::Channel *> channels_,
                   stats::Registry &reg)
    : Fabric(eq, cfg_, reg, "fabric.dl"),
      channels(channels_),
      path(eq, cfg_, channels_, pollTargets(cfg_), reg),
      statPacketsLink(reg.group("fabric.dl").scalar("packetsViaLink")),
      statPacketsHost(reg.group("fabric.dl").scalar("packetsViaHost")),
      statProxyNotifies(reg.group("fabric.dl").scalar("proxyNotifies")),
      statDllFailedTransfers(
          reg.group("fabric.dl").scalar("dllFailedTransfers")),
      statDllCtrlDropped(
          reg.group("fabric.dl").scalar("dllCtrlDropped"))
{
    if (auto *t = eq.tracer(); t && t->enabled(obs::CatDll)) {
        tr = t;
        trk = t->track("fabric.dl", obs::CatDll);
        nmXact[static_cast<int>(Transaction::Type::RemoteRead)] =
            t->intern("remoteRead");
        nmXact[static_cast<int>(Transaction::Type::RemoteWrite)] =
            t->intern("remoteWrite");
        nmXact[static_cast<int>(Transaction::Type::Broadcast)] =
            t->intern("broadcast");
        nmXact[static_cast<int>(Transaction::Type::SyncMessage)] =
            t->intern("syncMsg");
        nmPacket = t->intern("packet");
        nmDllXfer = t->intern("dllXfer");
        nmDllRetry = t->intern("dllRetry");
        nmDllFailed = t->intern("dllFailed");
        nmLinkSuspect = t->intern("linkSuspect");
        nmLinkDown = t->intern("linkDown");
        nmLinkUp = t->intern("linkUp");
        nmFailover = t->intern("dllFailover");
        nmDllResync = t->intern("dllResync");
    }
    const unsigned gs = cfg.groupSize();
    const unsigned groups = cfg.numGroups();
    injectQ.assign(groups, {});
    for (unsigned g = 0; g < groups; ++g) {
        nets.push_back(std::make_unique<noc::Network>(
            eventq, "fabric.dl.group" + std::to_string(g), cfg.link, gs,
            reg, &cfg.faults));
        injectQ[g].assign(gs, {});
        for (unsigned node = 0; node < gs; ++node) {
            nets[g]->setRetryHandler(
                static_cast<int>(node), [this, g, node] {
                    drainInjectQueue(g, static_cast<int>(node));
                });
        }
    }
    // A configured fault model switches intra-group data onto the
    // reliable DLL transport, with one retry engine per DIMM.
    dllPath = cfg.faults.model != "none";
    if (dllPath) {
        if (cfg.faults.onExhausted == "drop")
            exhaustPolicy = ExhaustPolicy::Drop;
        else if (cfg.faults.onExhausted == "panic")
            exhaustPolicy = ExhaustPolicy::Panic;
        else
            exhaustPolicy = ExhaustPolicy::Failover;
        const auto sender_fb = exhaustPolicy == ExhaustPolicy::Panic
                                   ? proto::ExhaustFallback::Panic
                                   : proto::ExhaustFallback::Drop;
        for (unsigned d = 0; d < cfg.numDimms; ++d) {
            dllCtl.push_back(std::make_unique<DlController>(
                eventq, "fabric.dl.dllc" + std::to_string(d),
                static_cast<DimmId>(d), cfg.link.retryTimeoutPs,
                cfg.link.maxRetries, reg, cfg.link.retryWindow,
                sender_fb));
        }
        // Recovery-path counters exist only alongside the fault model
        // so fault-free runs keep the baseline stats JSON shape.
        auto &sg = reg.group("fabric.dl");
        statFailovers = &sg.scalar("dllFailovers");
        statFailoverBytes = &sg.scalar("failoverBytes");
        statStreamResyncs = &sg.scalar("dllStreamResyncs");
        statHostReroutes = &sg.scalar("hostReroutes");
        statProxyNotifyFallbacks = &sg.scalar("proxyNotifyFallbacks");
        statHealthSuspect = &sg.scalar("linkSuspectEvents");
        statHealthDown = &sg.scalar("linkDownEvents");
        statHealthRecovered = &sg.scalar("linkRecoveredEvents");
        statProbesSent = &sg.scalar("healthProbesSent");
        statProbesFailed = &sg.scalar("healthProbesFailed");
        // One health tracker per group, probing over the physical
        // links and feeding route recomputation on down/up edges.
        for (unsigned g = 0; g < groups; ++g) {
            auto h = std::make_unique<fault::LinkHealth>(
                eventq, cfg.faults.suspectAfter,
                cfg.faults.reprobeIntervalPs,
                cfg.link.retryTimeoutPs);
            for (unsigned n = 0; n < gs; ++n)
                for (int nb :
                     nets[g]->graph().neighbors(static_cast<int>(n)))
                    h->addEdge(static_cast<int>(n), nb);
            fault::LinkHealth::Callbacks cbs;
            cbs.sendProbe = [this, g](int a, int b, std::uint64_t id) {
                sendHealthProbe(g, a, b, id);
            };
            cbs.onTransition = [this, g](int a, int b,
                                         fault::LinkState from,
                                         fault::LinkState to) {
                onHealthTransition(g, a, b, from, to);
            };
            cbs.onProbeFailed = [this](int, int) {
                ++*statProbesFailed;
            };
            h->setCallbacks(std::move(cbs));
            health.push_back(std::move(h));
        }
    }
    // Multi-host pooling: the inter-host fabric joins the same queue.
    if (cfg.rackEnabled()) {
        rackFabric = rack::makeInterHostFabric(eventq, cfg, reg);
        rackPooledPrimary = cfg.rack.idcMode == "pooled";
    }
}

DlFabric::~DlFabric() = default;

void
DlFabric::setHostAvailabilitySink(HostAvailabilitySink s)
{
    if (rackFabric)
        rackFabric->setAvailabilitySink(std::move(s));
}

void
DlFabric::sendHealthProbe(unsigned group, int a, int b,
                          std::uint64_t probe_id)
{
    noc::Link *l = nets[group]->linkBetween(a, b);
    if (!l)
        return; // Not adjacent; the probe timeout stands in.
    ++*statProbesSent;
    // Probes bypass routing and credits on purpose: they test the
    // physical link itself, so a route-around must not make a dead
    // link look alive.
    noc::Message pm;
    pm.src = a;
    pm.dst = b;
    pm.flits = 1;
    pm.id = nextMsgId++;
    l->transmit(std::move(pm),
                [this, group, a, b, probe_id](noc::Message m) {
                    health[group]->probeResult(a, b, probe_id,
                                               !m.corrupted);
                });
}

void
DlFabric::onHealthTransition(unsigned group, int a, int b,
                             fault::LinkState from, fault::LinkState to)
{
    const std::uint64_t arg = (static_cast<std::uint64_t>(group) << 16) |
                              (static_cast<std::uint64_t>(a) << 8) |
                              static_cast<std::uint64_t>(b);
    switch (to) {
      case fault::LinkState::Suspect:
        ++*statHealthSuspect;
        if (tr)
            tr->instant(trk, nmLinkSuspect, eventq.now(), arg);
        break;
      case fault::LinkState::Down:
        ++*statHealthDown;
        nets[group]->setLinkDown(a, b, true);
        if (tr)
            tr->instant(trk, nmLinkDown, eventq.now(), arg);
        break;
      case fault::LinkState::Up:
        ++*statHealthRecovered;
        if (from == fault::LinkState::Down)
            nets[group]->setLinkDown(a, b, false);
        if (tr)
            tr->instant(trk, nmLinkUp, eventq.now(), arg);
        break;
    }
}

std::vector<std::pair<int, int>>
DlFabric::routePath(unsigned group, int from, int to) const
{
    std::vector<std::pair<int, int>> edges;
    const auto &graph = nets[group]->graph();
    int cur = from;
    // Bounded by the node count: the tables are cycle-free.
    for (unsigned hop = 0; cur != to && hop < graph.numNodes(); ++hop) {
        const int next = graph.nextHop(cur, to);
        if (next == -1)
            break; // No live route (already routed around).
        edges.emplace_back(cur, next);
        cur = next;
    }
    return edges;
}

DimmId
DlFabric::proxyOf(unsigned group) const
{
    return static_cast<DimmId>(group * cfg.groupSize() +
                               cfg.groupSize() / 2);
}

std::uint64_t
DlFabric::wireBytesFor(std::uint64_t payload_bytes)
{
    std::uint64_t wire = 0;
    std::uint64_t left = payload_bytes;
    do {
        const std::uint64_t chunk =
            std::min<std::uint64_t>(left, proto::maxPayloadBytes);
        wire += static_cast<std::uint64_t>(flitsFor(chunk)) *
                proto::flitBytes;
        left -= chunk;
    } while (left > 0);
    return wire;
}

Tick
DlFabric::packetizeDelay(unsigned flits) const
{
    const Tick period = periodFromMHz(cfg.dimm.coreFreqMHz);
    return (proto::Codec::controlCycles +
            proto::Codec::crcCyclesPerFlit * flits) *
           period;
}

Tick
DlFabric::decodeDelay(unsigned flits) const
{
    return packetizeDelay(flits);
}

double
DlFabric::distance(DimmId j, DimmId k) const
{
    if (j == k)
        return 0.0;
    if (groupIdx(j) == groupIdx(k)) {
        const unsigned d = nets[groupIdx(j)]->graph().distance(
            nodeIdx(j), nodeIdx(k));
        if (d != noc::TopologyGraph::unreachable)
            return static_cast<double>(d);
        // Link failures severed the pair: it pays the host-forwarding
        // cost below, like an inter-group access.
    }
    // Inter-group accesses pay polling discovery plus the host copy;
    // express that as equivalent link hops so the mapper can trade
    // the two off (profiled latencies in the paper play this role).
    const double per_hop = static_cast<double>(
        cfg.link.routerLatencyPs + cfg.link.wireLatencyPs);
    const double fwd = static_cast<double>(
        cfg.host.forwardLatencyPs + cfg.host.pollIntervalPs / 2);
    if (rackFabric && cfg.hostOf(j) != cfg.hostOf(k)) {
        // Cross-host pairs add the rack crossing -- or replace the
        // host path entirely when the pooled bridges are primary.
        const double rack_lat = static_cast<double>(
            cfg.rack.latencyPs +
            rackFabric->hops(cfg.hostOf(j), cfg.hostOf(k)) *
                cfg.rack.switchHopPs);
        if (rackPooledPrimary)
            return 2.0 + static_cast<double>(cfg.rack.latencyPs) /
                             per_hop;
        return (fwd + rack_lat) / per_hop;
    }
    return fwd / per_hop;
}

void
DlFabric::inject(unsigned group, noc::Message msg)
{
    auto &q = injectQ[group][static_cast<std::size_t>(msg.src)];
    if (!q.empty() || !nets[group]->tryInject(msg))
        q.push_back(std::move(msg));
}

void
DlFabric::drainInjectQueue(unsigned group, int node)
{
    auto &q = injectQ[group][static_cast<std::size_t>(node)];
    while (!q.empty()) {
        if (!nets[group]->tryInject(q.front()))
            return;
        q.pop_front();
    }
}

void
DlFabric::sendIntraGroup(DimmId s, DimmId d,
                         std::uint64_t payload_bytes,
                         std::function<void()> delivered)
{
    const unsigned group = groupIdx(s);
    if (group != groupIdx(d))
        panic("sendIntraGroup across groups (%u -> %u)", s, d);

    // Route-around: when link failures disconnected the pair on the
    // bridge, the transfer degrades to the host CPU-forwarding path
    // instead of feeding packets into a black hole.
    if (dllPath &&
        !nets[group]->graph().reachable(nodeIdx(s), nodeIdx(d))) {
        hostFallback(s, d, payload_bytes, std::move(delivered));
        return;
    }

    // Segment into <=256-byte packets; the last delivery completes
    // the transfer (paths are deterministic and FIFO, but count for
    // safety).
    std::uint64_t left = payload_bytes;
    std::vector<std::uint64_t> chunks;
    do {
        const std::uint64_t c =
            std::min<std::uint64_t>(left, proto::maxPayloadBytes);
        chunks.push_back(c);
        left -= c;
    } while (left > 0);

    auto remaining = std::make_shared<std::size_t>(chunks.size());
    auto done =
        std::make_shared<std::function<void()>>(std::move(delivered));

    if (dllPath) {
        // Reliable transport: each chunk becomes a real DL packet
        // whose wire image crosses the (possibly faulty) bridge under
        // CRC + retry protection.
        for (const std::uint64_t c : chunks) {
            proto::Packet pkt;
            pkt.src = static_cast<std::uint8_t>(s);
            pkt.dst = static_cast<std::uint8_t>(d);
            pkt.cmd = c > 0 ? proto::DlCommand::WriteReq
                            : proto::DlCommand::ReadReq;
            pkt.tag = dllCtl[s]->allocTag();
            pkt.payload.assign(static_cast<std::size_t>(c), 0);
            ++statPacketsLink;
            statBytesViaLink +=
                static_cast<double>(flitsFor(c)) * proto::flitBytes;
            std::uint64_t aid = 0;
            if (tr) {
                aid = tr->nextAsyncId();
                tr->asyncBegin(trk, nmDllXfer, eventq.now(), aid);
            }
            sendDllPacket(s, d, std::move(pkt),
                          [this, remaining, done, aid] {
                              if (tr)
                                  tr->asyncEnd(trk, nmDllXfer,
                                               eventq.now(), aid);
                              if (--*remaining == 0 && *done)
                                  (*done)();
                          });
        }
        return;
    }

    for (const std::uint64_t c : chunks) {
        const unsigned flits = flitsFor(c);
        noc::Message msg;
        msg.src = nodeIdx(s);
        msg.dst = nodeIdx(d);
        msg.flits = flits;
        msg.id = nextMsgId++;
        ++statPacketsLink;
        statBytesViaLink += static_cast<double>(flits) * proto::flitBytes;
        // Packet lifetime span: packetize begin -> decoded at d.
        std::uint64_t aid = 0;
        if (tr) {
            aid = tr->nextAsyncId();
            tr->asyncBegin(trk, nmPacket, eventq.now(), aid);
        }
        msg.deliver = [this, flits, remaining, done, aid](int) {
            // NW-interface CRC check + decode at the destination.
            eventq.scheduleIn(decodeDelay(flits),
                              [this, remaining, done, aid] {
                                  if (tr)
                                      tr->asyncEnd(trk, nmPacket,
                                                   eventq.now(), aid);
                                  if (--*remaining == 0 && *done)
                                      (*done)();
                              },
                              EventPriority::Control);
        };
        // NW-interface packetization before hitting the router.
        eventq.scheduleIn(packetizeDelay(flits),
                          [this, group, msg = std::move(msg)]() mutable {
                              inject(group, std::move(msg));
                          },
                          EventPriority::Control);
    }
}

void
DlFabric::hostFallback(DimmId s, DimmId d, std::uint64_t payload_bytes,
                       std::function<void()> delivered)
{
    ++*statHostReroutes;
    const auto wire = static_cast<unsigned>(wireBytesFor(payload_bytes));
    ++statPacketsHost;
    statBytesViaHost += wire;
    auto cb = std::make_shared<std::function<void()>>(
        std::move(delivered));
    requestForward(s, [this, s, d, wire, cb] {
        path.forwarder().forward(s, d, wire, [cb] {
            if (*cb)
                (*cb)();
        });
    });
}

void
DlFabric::sendDllPacket(DimmId s, DimmId d, proto::Packet pkt,
                        std::function<void()> delivered)
{
    const unsigned group = groupIdx(s);
    const std::uint64_t payload = pkt.payload.size();
    auto cb = std::make_shared<std::function<void()>>(
        std::move(delivered));
    // The sequence number is stamped at admission (possibly after
    // window backpressure), so the waiting-table key is registered on
    // the first transmission rather than here. The route is captured
    // at the same moment: exhaustion must blame the path the transfer
    // actually took, not whatever the tables say after a recompute.
    auto key = std::make_shared<std::optional<DllKey>>();
    auto route =
        std::make_shared<std::vector<std::pair<int, int>>>();

    dllCtl[s]->sendReliable(
        std::move(pkt),
        [this, group, s, d, cb, key, route](const proto::Packet &p,
                                            std::vector<std::uint8_t> wire) {
            if (!key->has_value()) {
                *key = DllKey{
                    p.src, p.dst,
                    static_cast<std::uint16_t>(p.dll & 0xffff)};
                dllWaiting[**key] = cb;
                *route = routePath(group, nodeIdx(s), nodeIdx(d));
            } else if (tr) {
                // The retry engine re-invoked transmit: a timeout or
                // NACK retransmission of this sequence number.
                tr->instant(trk, nmDllRetry, eventq.now(),
                            p.dll & 0xffff);
            }
            const unsigned flits = p.numFlits();
            noc::Message msg;
            msg.src = nodeIdx(s);
            msg.dst = nodeIdx(d);
            msg.flits = flits;
            msg.id = nextMsgId++;
            // The encoded image travels with the message; fault
            // models flip its real bits in flight. Each retry gets a
            // freshly encoded (clean) image.
            msg.wire = std::make_shared<std::vector<std::uint8_t>>(
                std::move(wire));
            msg.deliver = [this, d, flits, w = msg.wire](int) {
                eventq.scheduleIn(decodeDelay(flits),
                                  [this, d, w] { dllReceive(d, *w); },
                                  EventPriority::Control);
            };
            eventq.scheduleIn(
                packetizeDelay(flits),
                [this, group, msg = std::move(msg)]() mutable {
                    inject(group, std::move(msg));
                },
                EventPriority::Control);
        },
        /*on_acked=*/[this, s, route] {
            // An end-to-end ACK proves the route moved traffic:
            // clear the consecutive-failure blame on its links so
            // unrelated exhaustions cannot accumulate into a
            // spurious Suspect over the whole run.
            const unsigned g = groupIdx(s);
            if (g < health.size() && health[g] && !route->empty())
                health[g]->noteSuccess(*route);
        },
        /*on_failed=*/[this, s, d, payload, key, route] {
            // Retry budget exhausted (e.g. a stuck link outliving the
            // budget). Blame the route the transfer was admitted on so
            // the health machinery can take the dead link out of the
            // tables, then apply the configured exhaustion policy.
            ++statDllFailedTransfers;
            if (tr)
                tr->instant(trk, nmDllFailed, eventq.now(),
                            key->has_value()
                                ? std::get<2>(**key)
                                : std::uint64_t{0});
            const unsigned g = groupIdx(s);
            if (g < health.size() && health[g])
                health[g]->noteExhausted(
                    route->empty()
                        ? routePath(g, nodeIdx(s), nodeIdx(d))
                        : *route);
            if (!key->has_value())
                return;
            auto it = dllWaiting.find(**key);
            if (it == dllWaiting.end())
                return; // Delivered earlier; only the ACKs kept dying.
            auto cb2 = it->second;
            dllWaiting.erase(it);
            switch (exhaustPolicy) {
              case ExhaustPolicy::Panic:
                panic("DLL transfer %u -> %u (seq %u) exhausted its "
                      "retry budget (faults.onExhausted=panic)",
                      s, d, std::get<2>(**key));
                break;
              case ExhaustPolicy::Drop: {
                // Complete the transfer unsent so the workload can
                // terminate; the stat records the loss. The payload
                // is gone, but the receiver must still move past the
                // retired sequence or every later packet on the
                // stream jams behind the gap once the link recovers —
                // send a header-only resync note over the host path.
                warnRateLimited(
                    "dl-fabric-drop", 64,
                    "DLL transfer %u -> %u dropped after retry "
                    "exhaustion (faults.onExhausted=drop)",
                    static_cast<unsigned>(s), static_cast<unsigned>(d));
                if (cb2 && *cb2)
                    (*cb2)();
                const auto note =
                    static_cast<unsigned>(wireBytesFor(0));
                ++statPacketsHost;
                statBytesViaHost += note;
                const auto seq = std::get<2>(**key);
                requestForward(s, [this, s, d, note, seq] {
                    path.forwarder().forward(
                        s, d, note,
                        [this, s, d, seq] { dllStreamResync(s, d, seq); });
                });
                break;
              }
              case ExhaustPolicy::Failover: {
                // Re-submit the payload over the host CPU-forwarding
                // path: slower, but the bytes really arrive and the
                // completion chain stays intact. The forwarded image
                // carries the DLL header, so its arrival also resyncs
                // the receiver's stream past the retired sequence.
                ++*statFailovers;
                const auto wire =
                    static_cast<unsigned>(wireBytesFor(payload));
                *statFailoverBytes += wire;
                ++statPacketsHost;
                statBytesViaHost += wire;
                if (tr)
                    tr->instant(trk, nmFailover, eventq.now(),
                                std::get<2>(**key));
                const auto seq = std::get<2>(**key);
                requestForward(s, [this, s, d, wire, cb2, seq] {
                    path.forwarder().forward(
                        s, d, wire, [this, s, d, seq, cb2] {
                            dllStreamResync(s, d, seq);
                            if (cb2 && *cb2)
                                (*cb2)();
                        });
                });
                break;
              }
            }
        });
}

void
DlFabric::completeDllDelivery(const proto::Packet &p)
{
    const DllKey k{p.src, p.dst,
                   static_cast<std::uint16_t>(p.dll & 0xffff)};
    auto it = dllWaiting.find(k);
    if (it == dllWaiting.end())
        return; // Completed earlier (delivery, failover, or drop).
    auto cb = it->second;
    dllWaiting.erase(it);
    if (cb && *cb)
        (*cb)();
}

void
DlFabric::dllReceive(DimmId d, const std::vector<std::uint8_t> &wire)
{
    dllCtl[d]->onWireArrive(
        wire, /*corrupted=*/false,
        [this, d](const proto::Packet &ctrl) {
            sendDllControl(d, ctrl);
        },
        [this](proto::Packet p) { completeDllDelivery(p); },
        // A behind-window arrival is normally a filtered duplicate,
        // but after a stream resync it can be the only copy of a
        // sequence the skip jumped over while it was still in
        // flight: claim its completion if it is still waiting.
        [this](proto::Packet p) { completeDllDelivery(p); });
}

void
DlFabric::dllStreamResync(DimmId s, DimmId d, std::uint16_t seq)
{
    if (statStreamResyncs)
        ++*statStreamResyncs;
    if (tr)
        tr->instant(trk, nmDllResync, eventq.now(), seq);
    // The destination's controller learns the retired sequence from
    // the host-delivered DLL header and advances its reorder stream
    // past the permanent gap; held packets the skip releases complete
    // like normal in-order deliveries.
    dllCtl[d]->skipReceive(
        static_cast<std::uint8_t>(s), seq,
        [this](proto::Packet p) { completeDllDelivery(p); });
}

void
DlFabric::sendDllControl(DimmId from, const proto::Packet &ctrl)
{
    if (ctrl.dst >= cfg.numDimms ||
        groupIdx(static_cast<DimmId>(ctrl.dst)) != groupIdx(from)) {
        // Can only happen when a NACK was synthesized from an image
        // whose header bits (SRC) were themselves damaged: there is
        // no one to send it to. The sender's timeout recovers.
        ++statDllCtrlDropped;
        return;
    }
    const unsigned group = groupIdx(from);
    const auto dst = static_cast<DimmId>(ctrl.dst);
    noc::Message msg;
    msg.src = nodeIdx(from);
    msg.dst = nodeIdx(dst);
    msg.flits = 1;
    msg.id = nextMsgId++;
    // Control packets cross the same faulty links as data; a
    // corrupted ACK/NACK is dropped at the far end and the data
    // sender's retry timeout takes over.
    msg.wire = std::make_shared<std::vector<std::uint8_t>>(
        proto::encode(ctrl));
    msg.deliver = [this, dst, w = msg.wire](int) {
        eventq.scheduleIn(
            decodeDelay(1),
            [this, dst, w] {
                proto::Packet c;
                if (!proto::decode(*w, c)) {
                    ++statDllCtrlDropped;
                    return;
                }
                dllCtl[dst]->onControlArrive(c);
            },
            EventPriority::Control);
    };
    eventq.scheduleIn(packetizeDelay(1),
                      [this, group, msg = std::move(msg)]() mutable {
                          inject(group, std::move(msg));
                      },
                      EventPriority::Control);
}

void
DlFabric::requestForward(DimmId src, std::function<void()> job)
{
    const bool proxy_mode =
        cfg.pollingMode == PollingMode::Proxy ||
        cfg.pollingMode == PollingMode::ProxyInterrupt;
    const DimmId proxy =
        proxy_mode ? proxyOf(groupIdx(src)) : src;
    if (!proxy_mode || proxy == src) {
        // The job runs once host polling discovers the target.
        path.request(proxy, std::move(job));
        return;
    }
    // Register the request with the group's proxy over the link
    // network (a single-flit FwdReq packet), so the host only has to
    // poll one DIMM per group (Fig. 7).
    const unsigned g = groupIdx(src);
    auto job_sh = std::make_shared<std::function<void()>>(std::move(job));
    // When the proxy cannot be reached over the bridge (now, or by the
    // time the note would arrive), the host discovers the request on
    // its own polling cadence instead — modeled as one extra poll
    // interval of discovery latency.
    auto fallback = [this, proxy, job_sh] {
        if (statProxyNotifyFallbacks)
            ++*statProxyNotifyFallbacks;
        eventq.scheduleIn(
            cfg.host.pollIntervalPs,
            [this, proxy, job_sh] {
                path.request(proxy, [job_sh] { (*job_sh)(); });
            },
            EventPriority::Control);
    };
    if (dllPath &&
        !nets[g]->graph().reachable(nodeIdx(src), nodeIdx(proxy))) {
        fallback();
        return;
    }
    ++statProxyNotifies;
    // Exactly one of {delivery, drop, deadline} may claim the job; a
    // shared flag makes the losers no-ops.
    auto claimed = std::make_shared<bool>(false);
    noc::Message note;
    note.src = nodeIdx(src);
    note.dst = nodeIdx(proxy);
    note.flits = 1;
    note.id = nextMsgId++;
    statBytesViaLink += proto::flitBytes;
    note.deliver = [this, proxy, job_sh, claimed](int) {
        if (*claimed)
            return;
        *claimed = true;
        path.request(proxy, [job_sh] { (*job_sh)(); });
    };
    note.onDropped = [claimed, fallback] {
        if (*claimed)
            return;
        *claimed = true;
        fallback();
    };
    if (dllPath) {
        // A stuck link *delays* whatever is serialized into it
        // (noc::Link::transmit adds the outage to the arrival tick, it
        // never drops), so a notify note caught upstream of the proxy
        // before LinkHealth marks the link down would neither deliver
        // nor fire onDropped within the run — the forward job would be
        // lost and every transaction behind it would hang (on the 8D
        // two-group stuck-bridge cell, group 0's proxy sits behind the
        // stuck 1->2 edge). Bound the note's useful life by the same
        // timeout that protects DLL data packets; past it, the host
        // discovers the request on its own polling cadence.
        eventq.scheduleIn(
            packetizeDelay(1) + cfg.link.retryTimeoutPs,
            [claimed, fallback] {
                if (*claimed)
                    return;
                *claimed = true;
                fallback();
            },
            EventPriority::Control);
    }
    eventq.scheduleIn(packetizeDelay(1),
                      [this, g, note = std::move(note)]() mutable {
                          inject(g, std::move(note));
                      },
                      EventPriority::Control);
}

void
DlFabric::groupBroadcast(DimmId s, std::uint64_t bytes,
                         std::function<void()> all_delivered)
{
    const unsigned group = groupIdx(s);
    const unsigned gs = cfg.groupSize();
    if (gs == 1) {
        completeLater(all_delivered, eventq.now());
        return;
    }

    if (dllPath) {
        // Under fault injection the spanning-tree broadcast gives way
        // to per-destination reliable unicasts: every copy is CRC +
        // retry protected, and copies for nodes the tables can no
        // longer reach degrade to host forwarding individually
        // (sendIntraGroup handles both).
        auto remaining = std::make_shared<std::size_t>(gs - 1);
        auto done = std::make_shared<std::function<void()>>(
            std::move(all_delivered));
        for (unsigned node = 0; node < gs; ++node) {
            const DimmId dv = dimmAt(group, static_cast<int>(node));
            if (dv == s)
                continue;
            sendIntraGroup(s, dv, bytes, [remaining, done] {
                if (--*remaining == 0 && *done)
                    (*done)();
            });
        }
        return;
    }

    std::uint64_t left = bytes;
    std::vector<std::uint64_t> chunks;
    do {
        const std::uint64_t c =
            std::min<std::uint64_t>(left, proto::maxPayloadBytes);
        chunks.push_back(c);
        left -= c;
    } while (left > 0);

    // Every node (including the source's own router) ejects each
    // broadcast packet once.
    auto remaining =
        std::make_shared<std::size_t>(chunks.size() * gs);
    auto done = std::make_shared<std::function<void()>>(
        std::move(all_delivered));

    for (const std::uint64_t c : chunks) {
        const unsigned flits = flitsFor(c);
        noc::Message msg;
        msg.src = nodeIdx(s);
        msg.dst = 0;
        msg.broadcast = true;
        msg.flits = flits;
        msg.id = nextMsgId++;
        ++statPacketsLink;
        statBytesViaLink += static_cast<double>(flits) * proto::flitBytes;
        msg.deliver = [this, flits, remaining, done,
                       src_node = nodeIdx(s)](int node) {
            if (node == src_node) {
                // The source's local copy needs no decode.
                if (--*remaining == 0 && *done)
                    (*done)();
                return;
            }
            eventq.scheduleIn(decodeDelay(flits),
                              [remaining, done] {
                                  if (--*remaining == 0 && *done)
                                      (*done)();
                              },
                              EventPriority::Control);
        };
        eventq.scheduleIn(packetizeDelay(flits),
                          [this, group, msg = std::move(msg)]() mutable {
                              inject(group, std::move(msg));
                          },
                          EventPriority::Control);
    }
}

void
DlFabric::hostPathSend(DimmId s, DimmId d,
                       std::uint64_t payload_bytes,
                       std::function<void()> done)
{
    const auto wire = static_cast<unsigned>(wireBytesFor(payload_bytes));
    if (!rackFabric || cfg.hostOf(s) == cfg.hostOf(d)) {
        // Intra-host: exactly the pre-rack sequence, so single-host
        // runs keep byte-identical timing and stats.
        ++statPacketsHost;
        statBytesViaHost += wire;
        requestForward(s,
                       [this, s, d, wire, done = std::move(done)]() mutable {
                           path.forwarder().forward(s, d, wire,
                                                    std::move(done));
                       });
        return;
    }
    // Cross-host: a transfer whose primary route lost an endpoint
    // fails over to the other one; with both ends down the pooled lane
    // is taken regardless (the cables physically exist, and the
    // simulation must terminate).
    const unsigned hs = cfg.hostOf(s);
    const unsigned hd = cfg.hostOf(d);
    bool pooled = rackPooledPrimary;
    if (pooled && !rackFabric->bridgeUp(hs, hd) &&
        rackFabric->hostUp(hs) && rackFabric->hostUp(hd)) {
        pooled = false;
        rackFabric->noteReroute();
    } else if (!pooled && !(rackFabric->hostUp(hs) &&
                            rackFabric->hostUp(hd))) {
        pooled = true;
        rackFabric->noteReroute();
    }
    if (pooled) {
        // The bridge lane is DIMM-Link wire: count it with the
        // link traffic, not the host path.
        ++statPacketsLink;
        statBytesViaLink += wire;
        rackFabric->pooledSend(hs, hd, wire, std::move(done));
        return;
    }
    ++statPacketsHost;
    statBytesViaHost += wire;
    // Discovery at the source host, the rack crossing, then the
    // channel fetch + store the Forwarder models at both ends.
    requestForward(s, [this, s, d, hs, hd, wire,
                       done = std::move(done)]() mutable {
        rackFabric->crossing(
            hs, hd, wire,
            [this, s, d, wire, done = std::move(done)]() mutable {
                path.forwarder().forward(s, d, wire,
                                         std::move(done));
            });
    });
}

void
DlFabric::doRemoteRead(Transaction t, std::function<void()> finish)
{
    if (groupIdx(t.src) == groupIdx(t.dst)) {
        // Fig. 5-(a): request packet out, read-return data back, all
        // over the DL-Bridge.
        sendIntraGroup(
            t.src, t.dst, 0, [this, t, finish]() mutable {
                memAccess(t.dst, t.addr, t.bytes, /*is_write=*/false,
                          [this, t, finish]() mutable {
                              sendIntraGroup(t.dst, t.src, t.bytes,
                                             finish);
                          });
            });
        return;
    }
    // Fig. 5-(b): the request packet is CPU-forwarded to the remote
    // group's DIMM; the read-return data is CPU-forwarded back after
    // the destination registers its own forwarding request. Across
    // hosts both legs ride the rack crossing (or the pooled bridge
    // lanes) instead.
    hostPathSend(t.src, t.dst, 0, [this, t, finish]() mutable {
        memAccess(t.dst, t.addr, t.bytes, /*is_write=*/false,
                  [this, t, finish]() mutable {
                      hostPathSend(t.dst, t.src, t.bytes, finish);
                  });
    });
}

void
DlFabric::doRemoteWrite(Transaction t, std::function<void()> finish)
{
    if (groupIdx(t.src) == groupIdx(t.dst)) {
        sendIntraGroup(
            t.src, t.dst, t.bytes, [this, t, finish]() mutable {
                memAccess(t.dst, t.addr, t.bytes, /*is_write=*/true,
                          finish);
            });
        return;
    }
    hostPathSend(t.src, t.dst, t.bytes, [this, t, finish]() mutable {
        memAccess(t.dst, t.addr, t.bytes, /*is_write=*/true, finish);
    });
}

void
DlFabric::doBroadcast(Transaction t, std::function<void()> finish)
{
    // Fig. 5-(c)/(d): broadcast in the local group over the bridge;
    // for each remote group, one CPU-forwarded copy to the group's
    // entry DIMM (its proxy), then a group-local broadcast there.
    ++statBroadcasts;
    auto finish_sh =
        std::make_shared<std::function<void()>>(std::move(finish));
    auto remaining = std::make_shared<unsigned>(0);
    auto dec = [remaining, finish_sh]() {
        if (--*remaining == 0)
            (*finish_sh)();
    };

    memAccess(t.src, t.addr, t.bytes, /*is_write=*/false,
              [this, t, remaining, dec]() mutable {
                  ++*remaining;
                  groupBroadcast(t.src, t.bytes, dec);
                  for (unsigned g = 0; g < cfg.numGroups(); ++g) {
                      if (g == groupIdx(t.src))
                          continue;
                      ++*remaining;
                      const DimmId entry = proxyOf(g);
                      hostPathSend(t.src, entry, t.bytes,
                                   [this, t, entry, dec] {
                                       groupBroadcast(entry, t.bytes,
                                                      dec);
                                   });
                  }
              });
}

void
DlFabric::doSyncMessage(Transaction t, std::function<void()> finish)
{
    if (groupIdx(t.src) == groupIdx(t.dst)) {
        sendIntraGroup(t.src, t.dst, t.bytes, finish);
        return;
    }
    hostPathSend(t.src, t.dst, t.bytes, std::move(finish));
}

std::string
DlFabric::debugDump()
{
    std::ostringstream os;
    const std::size_t waiting = dllWaiting.size();
    os << "fabric.dl: dllWaiting=" << waiting
       << " forwardBacklog=" << path.forwarder().backlog() << "\n";
    std::size_t shown = 0;
    for (const auto &kv : dllWaiting) {
        if (shown++ == 16) {
            os << "  ... (" << (waiting - 16) << " more waiting keys)\n";
            break;
        }
        os << "  waiting: "
           << static_cast<unsigned>(std::get<0>(kv.first)) << " -> "
           << static_cast<unsigned>(std::get<1>(kv.first))
           << " seq=" << std::get<2>(kv.first) << "\n";
    }
    for (std::size_t d = 0; d < dllCtl.size(); ++d) {
        const auto &c = *dllCtl[d];
        if (c.retryInFlight() == 0 && c.retryQueued() == 0 &&
            c.receiverBuffered() == 0)
            continue;
        os << "  dllc" << d << ": retryInFlight=" << c.retryInFlight()
           << " retryQueued=" << c.retryQueued()
           << " receiverBuffered=" << c.receiverBuffered() << "\n";
    }
    for (std::size_t g = 0; g < health.size(); ++g) {
        if (health[g]->numSuspectOrDown() == 0)
            continue;
        os << "  group" << g << " link health:\n" << health[g]->dump();
    }
    if (rackFabric)
        os << rackFabric->debugDump();
    return os.str();
}

void
DlFabric::submit(Transaction t)
{
    ++statTransactions;
    const Tick started = eventq.now();
    const std::uint16_t nm = nmXact[static_cast<int>(t.type)];
    std::uint64_t aid = 0;
    if (tr) {
        aid = tr->nextAsyncId();
        tr->asyncBegin(trk, nm, started, aid);
    }
    auto finish = [this, cb = std::move(t.onComplete), started, nm,
                   aid]() mutable {
        statLatencyPs.sample(static_cast<double>(eventq.now() - started));
        if (tr)
            tr->asyncEnd(trk, nm, eventq.now(), aid);
        if (cb)
            cb();
    };

    switch (t.type) {
      case Transaction::Type::RemoteRead:
        doRemoteRead(std::move(t), std::move(finish));
        break;
      case Transaction::Type::RemoteWrite:
        doRemoteWrite(std::move(t), std::move(finish));
        break;
      case Transaction::Type::Broadcast:
        doBroadcast(std::move(t), std::move(finish));
        break;
      case Transaction::Type::SyncMessage:
        doSyncMessage(std::move(t), std::move(finish));
        break;
    }
}

namespace {

FabricFactory::Registrar regDl("DIMM-Link",
    [](EventQueue &eq, const SystemConfig &cfg,
       std::vector<host::Channel *> channels, stats::Registry &reg)
        -> std::unique_ptr<Fabric> {
        return std::make_unique<DlFabric>(eq, cfg, std::move(channels),
                                       reg);
    });

} // namespace

} // namespace idc
} // namespace dimmlink
