#include "idc/dl_fabric.hh"

#include <memory>
#include <sstream>

#include "common/log.hh"
#include "obs/tracer.hh"
#include "rack/inter_host_fabric.hh"

namespace dimmlink {
namespace idc {

namespace {

/** Polling targets: one proxy per group, or every DIMM. */
std::vector<DimmId>
pollTargets(const SystemConfig &cfg)
{
    std::vector<DimmId> v;
    if (cfg.proxyPolling()) {
        for (unsigned g = 0; g < cfg.numGroups(); ++g)
            v.push_back(cfg.middleDimmOf(g));
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
      fwd(eq, cfg_, channels_, reg),
      poll(eq, cfg_, channels_, pollTargets(cfg_), reg),
      statPacketsLink(reg.group("fabric.dl").scalar("packetsViaLink")),
      statPacketsHost(reg.group("fabric.dl").scalar("packetsViaHost")),
      statProxyNotifies(reg.group("fabric.dl").scalar("proxyNotifies")),
      statDllFailedTransfers(
          reg.group("fabric.dl").scalar("dllFailedTransfers")),
      statDllCtrlDropped(
          reg.group("fabric.dl").scalar("dllCtrlDropped")),
      statFailovers(reg.group("fabric.dl").scalar("dllFailovers")),
      statFailoverBytes(reg.group("fabric.dl").scalar("failoverBytes")),
      statStreamResyncs(
          reg.group("fabric.dl").scalar("dllStreamResyncs")),
      statHostReroutes(reg.group("fabric.dl").scalar("hostReroutes")),
      statProxyNotifyFallbacks(
          reg.group("fabric.dl").scalar("proxyNotifyFallbacks")),
      statHealthSuspect(
          reg.group("fabric.dl").scalar("linkSuspectEvents")),
      statHealthDown(reg.group("fabric.dl").scalar("linkDownEvents")),
      statHealthRecovered(
          reg.group("fabric.dl").scalar("linkRecoveredEvents")),
      statProbesSent(reg.group("fabric.dl").scalar("healthProbesSent")),
      statProbesFailed(
          reg.group("fabric.dl").scalar("healthProbesFailed"))
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
    for (unsigned g = 0; g < groups; ++g)
        nets.push_back(std::make_unique<noc::Network>(
            eventq, "fabric.dl.group" + std::to_string(g), cfg.link, gs,
            reg, &cfg.faults));
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
        // The fabric owns every retry engine (a private base, so
        // the conversion happens here).
        auto &owner = static_cast<proto::RetrySender::Owner &>(*this);
        for (unsigned d = 0; d < cfg.numDimms; ++d)
            dllCtl.push_back(std::make_unique<DllCtl>(
                eventq, owner, cfg.link,
                reg.group("fabric.dl.dllc" + std::to_string(d))));
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
                ++statProbesFailed;
            };
            h->setCallbacks(std::move(cbs));
            health.push_back(std::move(h));
        }
    }
    // Multi-host pooling: the inter-host fabric joins the same queue.
    if (cfg.rackEnabled()) {
        rackFabric =
            std::make_unique<rack::InterHostFabric>(eventq, cfg, reg);
        rackPooledPrimary = cfg.rack.idcMode == "pooled";
    }
}

DlFabric::~DlFabric() = default;

DlFabric::DllCtl::DllCtl(EventQueue &eq, proto::RetrySender::Owner &owner,
                         const LinkConfig &link, stats::Group &g)
    : sender(eq, owner, link.retryTimeoutPs, link.maxRetries, g,
             link.retryWindow),
      receiver(g, link.retryWindow),
      packetized(g.scalar("packetized")),
      decoded(g.scalar("decoded"))
{
}

bool
DlFabric::routeUp(unsigned a, unsigned b) const
{
    return !rackFabric || rackFabric->routeUp(a, b);
}

void
DlFabric::sendHealthProbe(unsigned group, int a, int b,
                          std::uint64_t probe_id)
{
    noc::Link *l = nets[group]->linkBetween(a, b);
    if (!l)
        return; // Not adjacent; the probe timeout stands in.
    ++statProbesSent;
    // Probes bypass routing and credits on purpose: they test the
    // physical link itself, so a route-around must not make a dead
    // link look alive.
    noc::Message pm;
    pm.src = a;
    pm.dst = b;
    pm.flits = 1;
    const Tick arrival = l->transmit(pm);
    eventq.schedule(arrival,
                    [this, group, a, b, probe_id, ok = !pm.corrupted] {
                        health[group]->probeResult(a, b, probe_id, ok);
                    },
                    EventPriority::Delivery);
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
        ++statHealthSuspect;
        if (tr)
            tr->instant(trk, nmLinkSuspect, eventq.now(), arg);
        break;
      case fault::LinkState::Down:
        ++statHealthDown;
        nets[group]->setLinkDown(a, b, true);
        if (tr)
            tr->instant(trk, nmLinkDown, eventq.now(), arg);
        break;
      case fault::LinkState::Up:
        ++statHealthRecovered;
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

Tick
DlFabric::packetizeDelay(unsigned flits) const
{
    return proto::Codec::packetizeCycles(flits) *
           periodFromMHz(cfg.dimm.coreFreqMHz);
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
            rackFabric->hops() * cfg.rack.switchHopPs);
        if (rackPooledPrimary)
            return 2.0 + static_cast<double>(cfg.rack.latencyPs) /
                             per_hop;
        return (fwd + rack_lat) / per_hop;
    }
    return fwd / per_hop;
}

void
DlFabric::launch(unsigned group, noc::Message msg)
{
    // NW-interface packetization before the packet hits the router.
    const Tick delay = packetizeDelay(msg.flits);
    eventq.scheduleIn(delay,
                      [this, group, msg = std::move(msg)]() mutable {
                          nets[group]->inject(std::move(msg));
                      },
                      EventPriority::Control);
}

void
DlFabric::sendIntraGroup(DimmId s, DimmId d,
                         std::uint64_t payload_bytes,
                         EventCallback delivered)
{
    const unsigned group = groupIdx(s);
    if (group != groupIdx(d))
        panic("sendIntraGroup across groups (%u -> %u)", s, d);

    // Route-around: when link failures disconnected the pair on the
    // bridge, the transfer degrades to the host CPU-forwarding path
    // instead of feeding packets into a black hole.
    if (dllPath &&
        !nets[group]->graph().reachable(nodeIdx(s), nodeIdx(d))) {
        ++statHostReroutes;
        hostPathSend(s, d, payload_bytes, std::move(delivered));
        return;
    }
    bridgeSend(s, nodeIdx(d), 1, payload_bytes, std::move(delivered));
}

void
DlFabric::bridgeSend(DimmId s, int dst, unsigned copies,
                     std::uint64_t bytes, EventCallback done)
{
    const unsigned group = groupIdx(s);
    // The last copy of the last packet completes the transfer (paths
    // are deterministic and FIFO, but count for safety). A
    // single-packet transfer needs no count.
    const std::uint64_t packets = proto::packetsFor(bytes);
    CountdownPool::Countdown *xfer =
        packets > 1 ? countdowns.start(packets * copies, std::move(done))
                    : nullptr;
    proto::forEachSegment(bytes, [&](unsigned chunk) {
        ++statPacketsLink;
        statBytesViaLink += static_cast<double>(proto::wireBytesFor(chunk));
        if (dllPath) {
            EventCallback landed;
            if (xfer)
                landed = [this, xfer] { countdowns.land(xfer); };
            else
                landed = std::move(done);
            sendDllPacket(s, dimmAt(group, dst), chunk, std::move(landed));
            return;
        }
        noc::Message msg;
        msg.src = nodeIdx(s);
        msg.broadcast = dst == toAll;
        msg.dst = msg.broadcast ? 0 : dst;
        msg.flits = proto::flitsFor(chunk);
        PacketRec *rec = packetRecs.acquire();
        rec->xfer = xfer;
        if (!xfer)
            rec->done = std::move(done);
        rec->flits = msg.flits;
        rec->copies = copies;
        if (msg.broadcast) {
            rec->bcastSrc = msg.src;
        } else if (tr) {
            // Packet lifetime span: packetize begin -> decoded at dst.
            rec->aid = tr->nextAsyncId();
            tr->asyncBegin(trk, nmPacket, eventq.now(), rec->aid);
        }
        msg.deliver = [this, rec](int node) { packetEjected(rec, node); };
        launch(group, std::move(msg));
    });
}

void
DlFabric::packetEjected(PacketRec *rec, int node)
{
    if (node == rec->bcastSrc) {
        // The broadcast source's local copy needs no decode.
        packetLanded(rec);
        return;
    }
    // NW-interface CRC check + decode at the destination (as long as
    // packetizing it took).
    eventq.scheduleIn(packetizeDelay(rec->flits),
                      [this, rec] { packetLanded(rec); },
                      EventPriority::Control);
}

void
DlFabric::packetLanded(PacketRec *rec)
{
    if (tr && rec->bcastSrc < 0)
        tr->asyncEnd(trk, nmPacket, eventq.now(), rec->aid);
    CountdownPool::Countdown *xfer = rec->xfer;
    EventCallback done;
    if (--rec->copies == 0) {
        done = std::move(rec->done);
        packetRecs.release(rec);
    }
    if (xfer)
        countdowns.land(xfer);
    else if (done)
        done();
}

void
DlFabric::sendDllPacket(DimmId s, DimmId d, unsigned bytes,
                        EventCallback delivered)
{
    // Reliable transport: the chunk becomes a DL packet that crosses
    // the (possibly faulty) bridge under CRC + retry protection.
    DllCtl &c = *dllCtl[s];
    const std::uint8_t tag = proto::allocTag(c.nextTag);
    const auto src = static_cast<std::uint8_t>(s);
    const auto dst = static_cast<std::uint8_t>(d);
    const proto::Packet pkt =
        bytes > 0 ? proto::Codec::makeWriteReq(src, dst, 0, tag, bytes)
                  : proto::Codec::makeReadReq(src, dst, 0, tag);
    if (tr) {
        const std::uint64_t aid = tr->nextAsyncId();
        tr->asyncBegin(trk, nmDllXfer, eventq.now(), aid);
        delivered = [this, aid, landed = std::move(delivered)]() mutable {
            tr->asyncEnd(trk, nmDllXfer, eventq.now(), aid);
            if (landed)
                landed();
        };
    }
    DllRec *rec = dllRecs.acquire();
    rec->delivered = std::move(delivered);
    rec->s = s;
    rec->d = d;
    rec->payload = bytes;
    ++c.packetized;
    c.sender.send(pkt, rec);
}

void
DlFabric::dllTransmit(const proto::Packet &p, void *r, unsigned attempt)
{
    auto *rec = static_cast<DllRec *>(r);
    const DimmId s = rec->s;
    const DimmId d = rec->d;
    if (attempt == 0) {
        // First transmission: register the completion under the
        // admitted sequence number, and capture the route -- an
        // exhaustion must blame the path the transfer actually took,
        // not whatever the tables say after a recompute.
        rec->key = DllKey{p.src, p.dst,
                          static_cast<std::uint16_t>(p.dll & 0xffff)};
        dllWaiting[rec->key] = std::move(rec->delivered);
        rec->route = routePath(groupIdx(s), nodeIdx(s), nodeIdx(d));
    } else if (tr) {
        // A timeout or NACK retransmission of this sequence number.
        tr->instant(trk, nmDllRetry, eventq.now(), p.dll & 0xffff);
    }
    // Each retry leaves undamaged.
    sendWire(s, d, p, /*control=*/false);
}

void
DlFabric::sendWire(DimmId s, DimmId d, const proto::Packet &p, bool control)
{
    noc::Message msg;
    msg.src = nodeIdx(s);
    msg.dst = nodeIdx(d);
    msg.flits = p.numFlits();
    // The record holds the packet and the message points at its flip
    // list, where fault models record damage in flight.
    WireRec *rec = wireRecs.acquire();
    rec->pkt = p;
    msg.flips = &rec->flips;
    rec->d = d;
    rec->control = control;
    msg.deliver = [this, rec](int) { wireEjected(rec); };
    // A dropped packet needs no completion of its own (the sender's
    // retry timeout recovers), only its record back.
    msg.onDropped = [this, rec] { wireRecs.release(rec); };
    launch(groupIdx(s), std::move(msg));
}

void
DlFabric::wireEjected(WireRec *rec)
{
    eventq.scheduleIn(
        packetizeDelay(rec->pkt.numFlits()),
        [this, rec] {
            if (!rec->control)
                dllReceive(rec->d, rec->pkt, rec->flips);
            else if (!dllCtl[rec->d]->sender.onControl(rec->pkt,
                                                       rec->flips))
                ++statDllCtrlDropped;
            wireRecs.release(rec);
        },
        EventPriority::Control);
}

void
DlFabric::dllAcked(void *r)
{
    auto *rec = static_cast<DllRec *>(r);
    // An end-to-end ACK proves the route moved traffic: clear the
    // consecutive-failure blame on its links so unrelated exhaustions
    // cannot accumulate into a spurious Suspect over the whole run.
    const unsigned g = groupIdx(rec->s);
    if (g < health.size() && health[g] && !rec->route.empty())
        health[g]->noteSuccess(rec->route);
    dllRecs.release(rec);
}

void
DlFabric::dllFailed(void *r)
{
    auto *rec = static_cast<DllRec *>(r);
    // Retry budget exhausted (e.g. a stuck link outliving the budget).
    // Blame the route the transfer was admitted on so the health
    // machinery can take the dead link out of the tables, then apply
    // the configured exhaustion policy.
    const DimmId s = rec->s;
    const DimmId d = rec->d;
    const std::uint64_t payload = rec->payload;
    const DllKey key = rec->key;
    const auto seq = std::get<2>(key);
    ++statDllFailedTransfers;
    if (tr)
        tr->instant(trk, nmDllFailed, eventq.now(), seq);
    const unsigned g = groupIdx(s);
    if (g < health.size() && health[g])
        health[g]->noteExhausted(
            rec->route.empty() ? routePath(g, nodeIdx(s), nodeIdx(d))
                               : rec->route);
    dllRecs.release(rec);
    auto it = dllWaiting.find(key);
    if (it == dllWaiting.end())
        return; // Delivered earlier; only the ACKs kept dying.
    EventCallback cb = std::move(it->second);
    dllWaiting.erase(it);
    switch (exhaustPolicy) {
      case ExhaustPolicy::Panic:
        panic("DLL transfer %u -> %u (seq %u) exhausted its retry "
              "budget (faults.onExhausted=panic)",
              s, d, seq);
        break;
      case ExhaustPolicy::Drop: {
        // Complete the transfer unsent so the workload can terminate;
        // the stat records the loss. The payload is gone, but the
        // receiver must still move past the retired sequence or every
        // later packet on the stream jams behind the gap once the
        // link recovers -- send a header-only resync note over the
        // host path.
        // A dead link can exhaust transfer after transfer: warn on
        // the first drop and on every 64th.
        if (++dllDrops == 1 || dllDrops % 64 == 0)
            warn("DLL transfer %u -> %u dropped after retry exhaustion "
                 "(faults.onExhausted=drop; drop %llu of this run)",
                 static_cast<unsigned>(s), static_cast<unsigned>(d),
                 static_cast<unsigned long long>(dllDrops));
        if (cb)
            cb();
        hostPathSend(s, d, 0,
                     [this, s, d, seq] { dllStreamResync(s, d, seq); });
        break;
      }
      case ExhaustPolicy::Failover: {
        // Re-submit the payload over the host CPU-forwarding path:
        // slower, but the bytes really arrive and the completion chain
        // stays intact. The forwarded image carries the DLL header, so
        // its arrival also resyncs the receiver's stream past the
        // retired sequence.
        ++statFailovers;
        statFailoverBytes +=
            static_cast<double>(proto::wireBytesFor(payload));
        if (tr)
            tr->instant(trk, nmFailover, eventq.now(), seq);
        hostPathSend(s, d, payload,
                     [this, s, d, seq, cb = std::move(cb)]() mutable {
                         dllStreamResync(s, d, seq);
                         if (cb)
                             cb();
                     });
        break;
      }
    }
}

void
DlFabric::completeDllDelivery(const proto::Packet &p)
{
    const DllKey k{p.src, p.dst,
                   static_cast<std::uint16_t>(p.dll & 0xffff)};
    auto it = dllWaiting.find(k);
    if (it == dllWaiting.end())
        return; // Completed earlier (delivery, failover, or drop).
    EventCallback cb = std::move(it->second);
    dllWaiting.erase(it);
    if (cb)
        cb();
}

void
DlFabric::dllReceive(DimmId d, const proto::Packet &sent,
                     const std::vector<std::uint32_t> &flips)
{
    DllCtl &c = *dllCtl[d];
    // Borrow the spare list rather than allocate one per arrival; a
    // re-entrant call would find it moved out and allocate its own.
    std::vector<proto::Packet> ready = std::move(dllReadySpare);
    ready.clear();
    std::vector<proto::Packet> stale;
    std::optional<proto::Packet> ctrl;
    c.receiver.onArrive(sent, flips, ready, ctrl, &stale);
    if (ctrl)
        sendDllControl(d, *ctrl);
    for (const proto::Packet &p : ready) {
        ++c.decoded;
        completeDllDelivery(p);
    }
    // A behind-window arrival is normally a filtered duplicate, but
    // after a stream resync it can be the only copy of a sequence the
    // skip jumped over while it was still in flight: claim its
    // completion if it is still waiting.
    for (const proto::Packet &p : stale)
        completeDllDelivery(p);
    dllReadySpare = std::move(ready);
}

void
DlFabric::dllStreamResync(DimmId s, DimmId d, std::uint16_t seq)
{
    ++statStreamResyncs;
    if (tr)
        tr->instant(trk, nmDllResync, eventq.now(), seq);
    // The destination's controller learns the retired sequence from
    // the host-delivered DLL header and advances its reorder stream
    // past the permanent gap; held packets the skip releases complete
    // like normal in-order deliveries.
    DllCtl &c = *dllCtl[d];
    std::vector<proto::Packet> ready;
    c.receiver.skipTo(static_cast<std::uint8_t>(s), seq, ready);
    for (const proto::Packet &p : ready) {
        ++c.decoded;
        completeDllDelivery(p);
    }
}

void
DlFabric::sendDllControl(DimmId from, const proto::Packet &ctrl)
{
    if (ctrl.dst >= cfg.numDimms ||
        groupIdx(static_cast<DimmId>(ctrl.dst)) != groupIdx(from)) {
        // Can only happen when a NACK was synthesized from a packet
        // whose header bits (SRC) were themselves damaged: there is
        // no one to send it to. The sender's timeout recovers.
        ++statDllCtrlDropped;
        return;
    }
    // Control packets cross the same faulty links as data; a
    // corrupted ACK/NACK is dropped at the far end and the data
    // sender's retry timeout takes over.
    sendWire(from, static_cast<DimmId>(ctrl.dst), ctrl, /*control=*/true);
}

void
DlFabric::requestForward(DimmId src, EventCallback job)
{
    const DimmId proxy =
        cfg.proxyPolling() ? cfg.middleDimmOf(groupIdx(src)) : src;
    if (proxy == src) {
        // The job runs once host polling discovers the target.
        poll.request(proxy, std::move(job));
        return;
    }
    // Register the request with the group's proxy over the link
    // network (a single-flit FwdReq packet), so the host only has to
    // poll one DIMM per group (Fig. 7). When the proxy cannot be
    // reached over the bridge (now, or by the time the note would
    // arrive), the host discovers the request on its own polling
    // cadence instead.
    const unsigned g = groupIdx(src);
    if (dllPath &&
        !nets[g]->graph().reachable(nodeIdx(src), nodeIdx(proxy))) {
        proxyFallback(proxy, std::move(job));
        return;
    }
    ++statProxyNotifies;
    // Exactly one of {delivery, drop, deadline} may claim the job;
    // the losers find it already moved out. The note holds one
    // reference to the record (it is delivered or dropped at most
    // once), the deadline event the other.
    ProxyRec *rec = proxyRecs.acquire();
    rec->job = std::move(job);
    rec->proxy = proxy;
    rec->refs = dllPath ? 2 : 1;
    noc::Message note;
    note.src = nodeIdx(src);
    note.dst = nodeIdx(proxy);
    note.flits = proto::flitsFor(0);
    statBytesViaLink += static_cast<double>(proto::wireBytesFor(0));
    note.deliver = [this, rec](int) {
        const DimmId p = rec->proxy;
        if (EventCallback claimed = claimProxyJob(rec))
            poll.request(p, std::move(claimed));
    };
    note.onDropped = [this, rec] { proxyNoteLost(rec); };
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
            packetizeDelay(note.flits) + cfg.link.retryTimeoutPs,
            [this, rec] { proxyNoteLost(rec); }, EventPriority::Control);
    }
    launch(g, std::move(note));
}

EventCallback
DlFabric::claimProxyJob(ProxyRec *rec)
{
    // The first claimant moves the (never empty) job out; later ones
    // find it empty.
    EventCallback job = std::move(rec->job);
    if (--rec->refs == 0)
        proxyRecs.release(rec);
    return job;
}

void
DlFabric::proxyNoteLost(ProxyRec *rec)
{
    const DimmId proxy = rec->proxy;
    if (EventCallback job = claimProxyJob(rec))
        proxyFallback(proxy, std::move(job));
}

void
DlFabric::proxyFallback(DimmId proxy, EventCallback job)
{
    // Modeled as one extra poll interval of discovery latency.
    ++statProxyNotifyFallbacks;
    eventq.scheduleIn(cfg.host.pollIntervalPs,
                      [this, proxy, job = std::move(job)]() mutable {
                          poll.request(proxy, std::move(job));
                      },
                      EventPriority::Control);
}

void
DlFabric::groupBroadcast(DimmId s, std::uint64_t bytes,
                         EventCallback all_delivered)
{
    const unsigned group = groupIdx(s);
    const unsigned gs = cfg.groupSize();
    if (gs == 1) {
        if (all_delivered)
            eventq.schedule(eventq.now(), std::move(all_delivered),
                            EventPriority::Delivery);
        return;
    }

    if (dllPath) {
        // Under fault injection the spanning-tree broadcast gives way
        // to per-destination reliable unicasts: every copy is CRC +
        // retry protected, and copies for nodes the tables can no
        // longer reach degrade to host forwarding individually
        // (sendIntraGroup handles both).
        auto *cd = countdowns.start(gs - 1, std::move(all_delivered));
        for (unsigned node = 0; node < gs; ++node) {
            const DimmId dv = dimmAt(group, static_cast<int>(node));
            if (dv == s)
                continue;
            sendIntraGroup(s, dv, bytes,
                           [this, cd] { countdowns.land(cd); });
        }
        return;
    }

    // Every node (including the source's own router) ejects each
    // broadcast packet once.
    bridgeSend(s, toAll, gs, bytes, std::move(all_delivered));
}

void
DlFabric::hostPathSend(DimmId s, DimmId d,
                       std::uint64_t payload_bytes,
                       EventCallback done)
{
    const auto wire =
        static_cast<unsigned>(proto::wireBytesFor(payload_bytes));
    if (!rackFabric || cfg.hostOf(s) == cfg.hostOf(d)) {
        // Intra-host: exactly the pre-rack sequence, so single-host
        // runs keep byte-identical timing and stats.
        ++statPacketsHost;
        statBytesViaHost += wire;
        requestForward(s,
                       [this, s, d, wire, done = std::move(done)]() mutable {
                           fwd.forward(s, d, wire, std::move(done));
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
                fwd.forward(s, d, wire, std::move(done));
            });
    });
}

void
DlFabric::doRemoteRead(const Transaction &t, EventCallback finish)
{
    const DimmId src = t.src;
    const DimmId dst = t.dst;
    const Addr addr = t.addr;
    const std::uint32_t bytes = t.bytes;
    if (groupIdx(src) == groupIdx(dst)) {
        // Fig. 5-(a): request packet out, read-return data back, all
        // over the DL-Bridge.
        sendIntraGroup(
            src, dst, 0,
            [this, src, dst, addr, bytes,
             finish = std::move(finish)]() mutable {
                memAccess(dst, addr, bytes, /*is_write=*/false,
                          [this, src, dst, bytes,
                           finish = std::move(finish)]() mutable {
                              sendIntraGroup(dst, src, bytes,
                                             std::move(finish));
                          });
            });
        return;
    }
    // Fig. 5-(b): the request packet is CPU-forwarded to the remote
    // group's DIMM; the read-return data is CPU-forwarded back after
    // the destination registers its own forwarding request. Across
    // hosts both legs ride the rack crossing (or the pooled bridge
    // lanes) instead.
    hostPathSend(src, dst, 0,
                 [this, src, dst, addr, bytes,
                  finish = std::move(finish)]() mutable {
                     memAccess(dst, addr, bytes, /*is_write=*/false,
                               [this, src, dst, bytes,
                                finish = std::move(finish)]() mutable {
                                   hostPathSend(dst, src, bytes,
                                                std::move(finish));
                               });
                 });
}

void
DlFabric::doRemoteWrite(const Transaction &t, EventCallback finish)
{
    const DimmId dst = t.dst;
    const Addr addr = t.addr;
    const std::uint32_t bytes = t.bytes;
    auto write = [this, dst, addr, bytes,
                  finish = std::move(finish)]() mutable {
        memAccess(dst, addr, bytes, /*is_write=*/true, std::move(finish));
    };
    if (groupIdx(t.src) == groupIdx(dst))
        sendIntraGroup(t.src, dst, bytes, std::move(write));
    else
        hostPathSend(t.src, dst, bytes, std::move(write));
}

void
DlFabric::doBroadcast(const Transaction &t, EventCallback finish)
{
    // Fig. 5-(c)/(d): broadcast in the local group over the bridge;
    // for each remote group, one CPU-forwarded copy to the group's
    // entry DIMM (its proxy), then a group-local broadcast there.
    // No leg completes before all are issued, so the count is fixed
    // up front: one leg per group.
    ++statBroadcasts;
    const DimmId src = t.src;
    const std::uint32_t bytes = t.bytes;
    memAccess(src, t.addr, bytes, /*is_write=*/false,
              [this, src, bytes, finish = std::move(finish)]() mutable {
                  auto *cd = countdowns.start(cfg.numGroups(),
                                              std::move(finish));
                  groupBroadcast(src, bytes,
                                 [this, cd] { countdowns.land(cd); });
                  for (unsigned g = 0; g < cfg.numGroups(); ++g) {
                      if (g == groupIdx(src))
                          continue;
                      const DimmId entry = cfg.middleDimmOf(g);
                      hostPathSend(src, entry, bytes,
                                   [this, entry, bytes, cd] {
                                       groupBroadcast(
                                           entry, bytes, [this, cd] {
                                               countdowns.land(cd);
                                           });
                                   });
                  }
              });
}

void
DlFabric::doSyncMessage(const Transaction &t, EventCallback finish)
{
    if (groupIdx(t.src) == groupIdx(t.dst))
        sendIntraGroup(t.src, t.dst, t.bytes, std::move(finish));
    else
        hostPathSend(t.src, t.dst, t.bytes, std::move(finish));
}

std::string
DlFabric::debugDump()
{
    std::ostringstream os;
    const std::size_t waiting = dllWaiting.size();
    os << "fabric.dl: dllWaiting=" << waiting
       << " forwardBacklog=" << fwd.backlog() << "\n";
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
        const std::size_t in_flight = c.sender.inFlight();
        const std::size_t queued = c.sender.queued();
        const std::size_t buffered = c.receiver.bufferedPackets();
        if (in_flight == 0 && queued == 0 && buffered == 0)
            continue;
        os << "  dllc" << d << ": retryInFlight=" << in_flight
           << " retryQueued=" << queued
           << " receiverBuffered=" << buffered << "\n";
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
DlFabric::execute(Transaction t, EventCallback finish)
{
    if (tr) {
        const std::uint16_t nm = nmXact[static_cast<int>(t.type)];
        const std::uint64_t aid = tr->nextAsyncId();
        tr->asyncBegin(trk, nm, eventq.now(), aid);
        finish = [this, nm, aid, done = std::move(finish)]() mutable {
            tr->asyncEnd(trk, nm, eventq.now(), aid);
            done();
        };
    }

    switch (t.type) {
      case Transaction::Type::RemoteRead:
        doRemoteRead(t, std::move(finish));
        break;
      case Transaction::Type::RemoteWrite:
        doRemoteWrite(t, std::move(finish));
        break;
      case Transaction::Type::Broadcast:
        doBroadcast(t, std::move(finish));
        break;
      case Transaction::Type::SyncMessage:
        doSyncMessage(t, std::move(finish));
        break;
    }
}

} // namespace idc
} // namespace dimmlink
