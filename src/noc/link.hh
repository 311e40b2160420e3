/**
 * @file
 * A unidirectional SerDes link of the DL-Bridge. Serializes one
 * message at a time at the configured bandwidth; the message reaches
 * the downstream end after the wire latency.
 */

#ifndef DIMMLINK_NOC_LINK_HH
#define DIMMLINK_NOC_LINK_HH

#include <memory>

#include "common/stats.hh"
#include "noc/message.hh"
#include "sim/event_queue.hh"

namespace dimmlink {

namespace fault {
class FaultModel;
} // namespace fault

namespace obs {
class Tracer;
} // namespace obs

namespace noc {

class Link
{
  public:
    /**
     * @param gbps        per-direction bandwidth (GRS: 25 GB/s).
     * @param wire_ps     SerDes + PCB trace latency per traversal.
     */
    Link(EventQueue &eq, std::string name, double gbps, Tick wire_ps,
         stats::Group &sg);
    ~Link();

    /**
     * Attach a fault model; every subsequent transmit() passes
     * through it. nullptr detaches.
     */
    void setFaultModel(std::unique_ptr<fault::FaultModel> m);

    /** Earliest tick a new transmission may begin. */
    Tick freeAt() const { return busyUntil; }

    /** Ticks to push @p flits flits through the serializer. */
    Tick serializationTime(unsigned flits) const;

    /**
     * Begin transmitting @p msg at max(now, freeAt()): occupy the
     * serializer, apply the fault model to its flits x 128 bits (which
     * may flip bits into msg.flips and set msg.corrupted), and record
     * stats and trace.
     * The caller delivers the message downstream.
     * @return the tick at which the tail flit arrives downstream
     * (serialization + wire latency).
     */
    Tick transmit(Message &msg);

    const std::string &name() const { return name_; }
    double bandwidthGBps() const { return gbps_; }

  private:
    EventQueue &eventq;
    std::string name_;
    double gbps_;
    Tick wireLatency;
    Tick busyUntil = 0;

    stats::Scalar &statFlits;
    stats::Scalar &statMessages;
    stats::Scalar &statBusyPs;
    stats::Scalar &statFaultCorrupted;
    stats::Scalar &statFaultStalledPs;
    stats::Scalar &statFaultDeratedPs;

    std::unique_ptr<fault::FaultModel> faultModel;

    obs::Tracer *tr = nullptr; ///< Null unless noc tracing is on.
    std::uint32_t trk = 0;
    std::uint16_t nmTx = 0, nmOutage = 0, nmCorrupt = 0;
};

} // namespace noc
} // namespace dimmlink

#endif // DIMMLINK_NOC_LINK_HH
