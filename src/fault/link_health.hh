/**
 * @file
 * Per-link health tracking for the DL bridge network. Each directed
 * link runs a small state machine — up -> suspect -> down — driven by
 * DLL retry exhaustions and timed re-probe packets, so a permanently
 * stuck link is taken out of the routing tables instead of absorbing
 * retries forever, and a recovered link is put back.
 *
 * The tracker owns only the state machine and its timers; actually
 * putting a probe on the wire, counting stats, and recomputing routes
 * are delegated through callbacks so the class stays independent of
 * the fabric and the noc.
 */

#ifndef DIMMLINK_FAULT_LINK_HEALTH_HH
#define DIMMLINK_FAULT_LINK_HEALTH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace fault {

enum class LinkState { Up, Suspect, Down };

const char *toString(LinkState s);

class LinkHealth
{
  public:
    struct Callbacks
    {
        /**
         * Put one probe packet on the physical link a -> b. The owner
         * must arrange for probeResult(a, b, probe_id, clean) to be
         * called when (if ever) the probe reaches the far end; a probe
         * that never arrives times out after probeTimeoutPs.
         */
        std::function<void(int a, int b, std::uint64_t probe_id)>
            sendProbe;
        /** Fired on every state transition (stats, tracing, routing). */
        std::function<void(int a, int b, LinkState from, LinkState to)>
            onTransition;
        /** A probe timed out or arrived corrupted. */
        std::function<void(int a, int b)> onProbeFailed;
    };

    /**
     * @param suspect_after      consecutive DLL exhaustions blaming an
     *                           edge before it turns suspect.
     * @param reprobe_interval   gap between probes of a non-up edge.
     * @param probe_timeout      how long to wait for a probe to land.
     */
    LinkHealth(EventQueue &eq, unsigned suspect_after,
               Tick reprobe_interval, Tick probe_timeout);

    void setCallbacks(Callbacks cb) { cbs = std::move(cb); }

    /** Register a directed edge; edges start Up. */
    void addEdge(int a, int b);

    /**
     * A reliable transfer exhausted its retry budget; blame every
     * directed edge on @p path (the route it was taking). Edges that
     * accumulate suspectAfter consecutive blames turn suspect and
     * start probing.
     */
    void noteExhausted(const std::vector<std::pair<int, int>> &path);

    /**
     * A reliable transfer was acknowledged end-to-end over @p path:
     * every Up edge on it demonstrably moved traffic, so its
     * consecutive-blame count resets. Without this, "consecutive"
     * failures would accumulate over the whole run and unrelated
     * exhaustions could flip a healthy edge to suspect. Edges that
     * already left Up are owned by the probe machinery and are not
     * touched.
     */
    void noteSuccess(const std::vector<std::pair<int, int>> &path);

    /**
     * The probe @p probe_id put on a -> b by Callbacks::sendProbe
     * reached the far end. @p clean is false when a fault model
     * corrupted it in flight. Stale ids (a newer probe superseded
     * this one) are ignored.
     */
    void probeResult(int a, int b, std::uint64_t probe_id, bool clean);

    LinkState state(int a, int b) const;
    std::size_t numSuspectOrDown() const;
    /** One line per non-up edge, for hang diagnostics. */
    std::string dump() const;

  private:
    struct Edge
    {
        LinkState state = LinkState::Up;
        unsigned consecFails = 0;
        std::uint64_t outstandingProbe = 0; ///< 0 = none in flight.
        EventQueue::EventId timeoutEv = 0;
        bool reprobePending = false;
    };

    using Key = std::pair<int, int>;

    void transition(const Key &k, Edge &e, LinkState to);
    void sendProbeNow(const Key &k, Edge &e);
    void probeFailed(const Key &k, Edge &e);
    void scheduleReprobe(const Key &k, Edge &e);

    EventQueue &eventq;
    unsigned suspectAfter;
    Tick reprobeInterval;
    Tick probeTimeout;
    Callbacks cbs;
    std::map<Key, Edge> edges;
    std::uint64_t nextProbeId = 1;
};

} // namespace fault
} // namespace dimmlink

#endif // DIMMLINK_FAULT_LINK_HEALTH_HH
