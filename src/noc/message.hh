/**
 * @file
 * The unit the DL network routes: a packetized message measured in
 * 128-bit flits. The interconnect model is virtual cut-through at
 * packet granularity with flit-denominated credit flow control — the
 * modeling granularity BookSim provides to MultiPIM in the paper's
 * methodology.
 */

#ifndef DIMMLINK_NOC_MESSAGE_HH
#define DIMMLINK_NOC_MESSAGE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace dimmlink {
namespace noc {

/** A routed message. Payload travels by closure in @ref deliver. */
struct Message
{
    /** Source node index within the network (not global DIMM id). */
    int src = 0;
    /** Destination node; ignored when @ref broadcast is set. */
    int dst = 0;
    /** Serialization length in flits (header/tail folded in). */
    unsigned flits = 1;
    /** Broadcast messages are forwarded along the source's BFS tree
     * until every node has accepted a copy (Fig. 5-c). */
    bool broadcast = false;
    /** Tick at which the message entered the network (set by inject). */
    Tick injectedAt = 0;
    /**
     * Where fault models append the wire-image bits they flip, in
     * order, for a DL packet the far end CRC-checks; null otherwise.
     * Not owned: it points into the sender's record, which keeps it
     * until the far end has checked the packet or @ref onDropped fired.
     */
    std::vector<std::uint32_t> *flips = nullptr;
    /**
     * A fault model damaged this message in flight. For messages with
     * a @ref flips list the positions are recorded there too; for
     * flit-count-only messages this flag is the only record of it.
     */
    bool corrupted = false;
    /**
     * Called once per destination when the message is ejected there.
     * The int argument is the ejecting node index. Broadcast fan-out
     * copies this callback (and onDropped) once per tree child, so
     * senders keep the captures to `this` plus a pooled record
     * pointer, which std::function stores without allocating.
     */
    std::function<void(int)> deliver;
    /**
     * Called when a router drops the message because its destination
     * became unreachable (a link went down mid-flight and the
     * recomputed tables have no route). Senders with their own
     * recovery (the DLL retry timeout) leave this unset; senders that
     * would otherwise lose a completion (the proxy forward-request
     * note) install a fallback here.
     */
    std::function<void()> onDropped;
};

} // namespace noc
} // namespace dimmlink

#endif // DIMMLINK_NOC_MESSAGE_HH
