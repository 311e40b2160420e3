/**
 * @file
 * The DIMM-Link fabric (Section III): per-group packet routing over
 * the DL-Bridge networks, hybrid routing for inter-group traffic via
 * host CPU forwarding, the polling-proxy mechanism of Section IV-A,
 * and group broadcast along per-source spanning trees (Fig. 5).
 */

#ifndef DIMMLINK_IDC_DL_FABRIC_HH
#define DIMMLINK_IDC_DL_FABRIC_HH

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "fault/link_health.hh"
#include "host/forwarder.hh"
#include "host/polling.hh"
#include "idc/fabric.hh"
#include "noc/network.hh"
#include "proto/codec.hh"
#include "proto/dll.hh"
#include "sim/record_pool.hh"

namespace dimmlink {

namespace rack {
class InterHostFabric;
} // namespace rack

namespace idc {

class DlFabric : public Fabric, private proto::RetrySender::Owner
{
  public:
    DlFabric(EventQueue &eq, const SystemConfig &cfg,
             std::vector<host::Channel *> channels,
             stats::Registry &reg);
    ~DlFabric() override;

    void enterNmpMode() override { poll.start(); }
    void exitNmpMode() override { poll.stop(); }

    /** Hop/forwarding-aware distance for the task mapper (§IV-B). */
    double distance(DimmId j, DimmId k) const override;

    std::size_t forwardBacklog() override { return fwd.backlog(); }

    std::size_t
    dllInFlight() override
    {
        std::size_t n = 0;
        for (const auto &c : dllCtl)
            n += c->sender.inFlight();
        return n;
    }

    const noc::Network &network(unsigned group) const
    {
        return *nets[group];
    }
    /** Mutable access, e.g. to mask a bridge link down mid-run. */
    noc::Network &network(unsigned group) { return *nets[group]; }

    /** In-flight DLL keys, retry windows, health and backlog state. */
    std::string debugDump() override;

    /** Asks the rack fabric; single-host runs have no host-level
     * outages. */
    bool routeUp(unsigned a, unsigned b) const override;

    /** What to do with a transfer whose DLL retry budget ran out. */
    enum class ExhaustPolicy { Failover, Drop, Panic };

  private:
    /** Run @p t under the fabric's trace span. */
    void execute(Transaction t, EventCallback finish) override;

    unsigned groupIdx(DimmId d) const { return cfg.groupOf(d); }
    int nodeIdx(DimmId d) const
    {
        return static_cast<int>(d % cfg.groupSize());
    }
    DimmId dimmAt(unsigned group, int node) const
    {
        return static_cast<DimmId>(group * cfg.groupSize() +
                                   static_cast<unsigned>(node));
    }

    /** NW-interface latency to packetize one packet of @p flits (or
     * to check and decode it: the same control FSM and CRC). */
    Tick packetizeDelay(unsigned flits) const;

    /**
     * Send @p payload_bytes from @p s to @p d inside one group,
     * segmented into packets; @p delivered fires at d after the last
     * packet is decoded. With fault injection enabled the packets ride
     * the reliable DLL transport (CRC validation at the far end,
     * NACK/timeout retransmission); otherwise the fast
     * flit-count-only path is used and timing is bit-identical to the
     * pre-fault model.
     */
    void sendIntraGroup(DimmId s, DimmId d, std::uint64_t payload_bytes,
                        EventCallback delivered);

    /** bridgeSend's destination node for a group broadcast. */
    static constexpr int toAll = -1;
    /**
     * Segment @p bytes from @p s into bridge packets for node @p dst
     * of its group, or for every node when @p dst is @ref toAll; each
     * packet lands @p copies times (1, or the group size for a
     * broadcast). @p done fires after the last copy lands. Unicasts
     * ride the reliable DLL transport when @ref dllPath is set.
     */
    void bridgeSend(DimmId s, int dst, unsigned copies,
                    std::uint64_t bytes, EventCallback done);

    /**
     * Transmit one DL packet carrying @p bytes from @p s to @p d (same
     * group) under DLL retry protection. @p delivered fires at d when
     * the packet is first decoded and released in order; a transfer
     * whose retry budget is exhausted counts toward dllFailedTransfers
     * and still completes so the simulation can terminate.
     */
    void sendDllPacket(DimmId s, DimmId d, unsigned bytes,
                       EventCallback delivered);
    /** DLL packet @p sent, damaged at @p flips, reached DIMM @p d. */
    void dllReceive(DimmId d, const proto::Packet &sent,
                    const std::vector<std::uint32_t> &flips);
    /** Claim and fire @p p's completion if it is still waiting. */
    void completeDllDelivery(const proto::Packet &p);
    /**
     * Sequence @p seq of the s -> d stream was retired by the
     * exhaustion policy without an in-order delivery; advance d's
     * receive stream past the gap so post-recovery sequences are not
     * held forever behind it. The notification rides the same
     * host-forwarded image (failover) or a dedicated host note
     * (drop), so it arrives even while the bridge route is dead.
     */
    void dllStreamResync(DimmId s, DimmId d, std::uint16_t seq);
    /** Send an ACK/NACK produced at @p from back over the bridge. */
    void sendDllControl(DimmId from, const proto::Packet &ctrl);

    /** Packetize @p msg, then inject it into @p group's network. */
    void launch(unsigned group, noc::Message msg);

    /**
     * Register a CPU-forwarding job for @p src. Under the proxy
     * schemes the notification first travels to the group's proxy
     * DIMM over the link network; when the proxy is unreachable over
     * the bridge (or the note is dropped mid-flight by a route
     * recompute), the job falls back to the host's own polling cadence
     * with a discovery-latency penalty.
     */
    void requestForward(DimmId src, EventCallback job);

    /**
     * Move @p payload_bytes from @p s to @p d over the host path (an
     * inter-group transfer, a pair the bridge can no longer connect,
     * or a DLL exhaustion's failover/resync): polling discovery plus
     * the Forwarder copy when both ends share a host, and — when a
     * rack is configured and the endpoints live under different hosts
     * — the same path composed with an inter-host crossing, or the
     * pooled DIMM-Link bridge lanes that bypass both hosts, with
     * failover onto the surviving path (counted in rack.reroutes).
     * @p done fires like a Forwarder delivery.
     */
    void hostPathSend(DimmId s, DimmId d, std::uint64_t payload_bytes,
                      EventCallback done);

    /** The directed edges the current tables route (from -> to) over. */
    std::vector<std::pair<int, int>> routePath(unsigned group, int from,
                                               int to) const;

    /** Put one health probe on the physical link a -> b of @p group. */
    void sendHealthProbe(unsigned group, int a, int b,
                         std::uint64_t probe_id);
    /** A link health state change: stats, tracing, route recompute. */
    void onHealthTransition(unsigned group, int a, int b,
                            fault::LinkState from, fault::LinkState to);

    /** Broadcast @p bytes within @p group starting at node of @p s. */
    void groupBroadcast(DimmId s, std::uint64_t bytes,
                        EventCallback all_delivered);

    void doRemoteRead(const Transaction &t, EventCallback finish);
    void doRemoteWrite(const Transaction &t, EventCallback finish);
    void doBroadcast(const Transaction &t, EventCallback finish);
    void doSyncMessage(const Transaction &t, EventCallback finish);

    /**
     * A flit-count-only bridge packet in flight. Its message's
     * deliver closure is [this, rec] -- broadcast fan-out copies it
     * per tree child -- so the per-packet state lives here.
     */
    struct PacketRec
    {
        /** Fired when the last copy lands, for a single-packet
         * transfer; multi-packet transfers count down @ref xfer. */
        EventCallback done;
        CountdownPool::Countdown *xfer = nullptr;
        unsigned flits = 0;
        /** Ejections still expected: 1, or the group size for a
         * broadcast. */
        unsigned copies = 1;
        /** Broadcast source node, whose local copy needs no decode;
         * -1 for a unicast packet. */
        int bcastSrc = -1;
        std::uint64_t aid = 0; ///< Trace span of a unicast packet.
    };
    /** Copy of @p rec's packet ejected at @p node: decode, then land. */
    void packetEjected(PacketRec *rec, int node);
    /** One copy of @p rec's packet was decoded at its destination. */
    void packetLanded(PacketRec *rec);

    /**
     * A proxy forward-request note. Exactly one of {delivery, drop,
     * deadline} claims the job; the record lives until the note and
     * the deadline event have both let go of it.
     */
    struct ProxyRec
    {
        EventCallback job; ///< Empty once claimed.
        DimmId proxy = 0;
        unsigned refs = 0;
    };
    /** Release one reference to @p rec; @return the job when this
     * call is the first to claim it, empty otherwise. */
    EventCallback claimProxyJob(ProxyRec *rec);
    /** The note was dropped, or its deadline passed: claim the job
     * for the fallback unless the delivery already did. */
    void proxyNoteLost(ProxyRec *rec);
    /** Hand @p job to the host's own polling of @p proxy, one poll
     * interval late (the note did not reach the proxy). */
    void proxyFallback(DimmId proxy, EventCallback job);

    std::vector<host::Channel *> channels;
    std::vector<std::unique_ptr<noc::Network>> nets;
    /** The inter-host fabric; null unless cfg.rackEnabled(). */
    std::unique_ptr<rack::InterHostFabric> rackFabric;
    /** cfg.rack.idcMode == "pooled" (the primary cross-host route). */
    bool rackPooledPrimary = false;
    /** The host CPU-forwarding path: polling discovery, then the
     * Forwarder's copy between channels. */
    host::Forwarder fwd;
    host::PollingEngine poll;

    /** True when intra-group data rides the reliable DLL transport
     * (enabled whenever a fault model is configured). */
    bool dllPath = false;
    /** Parsed from cfg.faults.onExhausted. */
    ExhaustPolicy exhaustPolicy = ExhaustPolicy::Failover;
    /** Transfers dropped under ExhaustPolicy::Drop, for the warning. */
    std::uint64_t dllDrops = 0;
    /**
     * One DIMM's DL-Controller (Fig. 6): the DLL retry sender, whose
     * owner is the fabric, and receiver, the NW-interface packet
     * counters and the 6-bit TAG counter. Its stats live under
     * fabric.dl.dllcN.
     */
    struct DllCtl
    {
        DllCtl(EventQueue &eq, proto::RetrySender::Owner &owner,
               const LinkConfig &link, stats::Group &g);

        proto::RetrySender sender;
        proto::RetryReceiver receiver;
        stats::Scalar &packetized;
        stats::Scalar &decoded;
        std::uint8_t nextTag = 0;
    };
    /** Per-DIMM DL-Controllers, indexed by global id (empty unless
     * @ref dllPath). */
    std::vector<std::unique_ptr<DllCtl>> dllCtl;
    /** Per-group link health trackers (empty with faults off). */
    std::vector<std::unique_ptr<fault::LinkHealth>> health;
    /** In-flight transfer completions, indexed by (SRC, DST, sequence)
     * — sequence numbers are only unique per directed stream. An
     * entry is claimed exactly once: at first in-order delivery, or
     * on permanent failure, whichever comes first. */
    using DllKey = std::tuple<std::uint8_t, std::uint8_t, std::uint16_t>;
    std::map<DllKey, EventCallback> dllWaiting;
    /** dllReceive's delivery list, kept for its capacity. */
    std::vector<proto::Packet> dllReadySpare;

    /**
     * One reliable DLL packet: the record its retry engine entry
     * hands back to the fabric's RetrySender::Owner calls. The
     * sequence number is stamped at admission (possibly after window
     * backpressure), so the key and the route are recorded on the
     * first transmission, which also moves @ref delivered into
     * dllWaiting. The record is recycled when the entry acks or
     * fails.
     */
    struct DllRec
    {
        EventCallback delivered;
        DimmId s = 0;
        DimmId d = 0;
        std::uint64_t payload = 0;
        DllKey key{};
        std::vector<std::pair<int, int>> route;
    };
    // RetrySender::Owner, with DllRec records.
    void dllTransmit(const proto::Packet &p, void *rec,
                     unsigned attempt) override;
    void dllAcked(void *rec) override;
    /** Blame the route, then apply faults.onExhausted: the one
     * fail-stop of the DLL path is the Panic policy. */
    void dllFailed(void *rec) override;

    /**
     * A DLL packet (data, or an ACK/NACK when @ref control) in flight
     * on the bridge. Its message points at @ref flips, where fault
     * models record the bits they flip, and its deliver and onDropped
     * closures are [this, rec]; the CRC-check event after delivery,
     * or the drop, recycles it.
     */
    struct WireRec
    {
        proto::Packet pkt;
        std::vector<std::uint32_t> flips;
        DimmId d = 0;
        bool control = false;
    };
    /** Packetize and inject @p p from @p s to @p d. */
    void sendWire(DimmId s, DimmId d, const proto::Packet &p, bool control);
    /** @p rec's packet reached its destination: CRC-check it there,
     * then recycle @p rec. */
    void wireEjected(WireRec *rec);

    RecordPool<PacketRec> packetRecs;
    RecordPool<ProxyRec> proxyRecs;
    RecordPool<DllRec> dllRecs;
    RecordPool<WireRec> wireRecs;

    stats::Scalar &statPacketsLink;
    stats::Scalar &statPacketsHost;
    stats::Scalar &statProxyNotifies;
    stats::Scalar &statDllFailedTransfers;
    stats::Scalar &statDllCtrlDropped;
    // Recovery-path counters.
    stats::Scalar &statFailovers;
    stats::Scalar &statFailoverBytes;
    stats::Scalar &statStreamResyncs;
    stats::Scalar &statHostReroutes;
    stats::Scalar &statProxyNotifyFallbacks;
    stats::Scalar &statHealthSuspect;
    stats::Scalar &statHealthDown;
    stats::Scalar &statHealthRecovered;
    stats::Scalar &statProbesSent;
    stats::Scalar &statProbesFailed;

    obs::Tracer *tr = nullptr; ///< Null unless dll tracing is on.
    std::uint32_t trk = 0;
    std::uint16_t nmXact[4] = {0, 0, 0, 0}; ///< Indexed by Type.
    std::uint16_t nmPacket = 0, nmDllXfer = 0, nmDllRetry = 0,
                  nmDllFailed = 0;
    std::uint16_t nmLinkSuspect = 0, nmLinkDown = 0, nmLinkUp = 0,
                  nmFailover = 0, nmDllResync = 0;
};

} // namespace idc
} // namespace dimmlink

#endif // DIMMLINK_IDC_DL_FABRIC_HH
