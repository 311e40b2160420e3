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
     * The encoded DL wire image, when the sender models it (reliable
     * DLL transport); null otherwise. Not owned: it points into the
     * sender's record, which keeps the image until the far end has
     * decoded it through the CRC or @ref onDropped fired. Fault
     * models flip bits in it in flight.
     */
    std::vector<std::uint8_t> *wire = nullptr;
    /**
     * A fault model damaged this message in flight. For messages with
     * a @ref wire image the damage is also physically present in the
     * bytes; for flit-count-only messages this flag is the only
     * record of it.
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
