#include "noc/link.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/types.hh"
#include "fault/fault_model.hh"
#include "obs/tracer.hh"
#include "proto/packet.hh"

namespace dimmlink {
namespace noc {

Link::Link(EventQueue &eq, std::string name, double gbps, Tick wire_ps,
           stats::Group &sg)
    : eventq(eq),
      name_(std::move(name)),
      gbps_(gbps),
      wireLatency(wire_ps),
      statFlits(sg.scalar("flits")),
      statMessages(sg.scalar("messages")),
      statBusyPs(sg.scalar("busyPs")),
      statFaultCorrupted(sg.scalar("faultCorrupted")),
      statFaultStalledPs(sg.scalar("faultStalledPs")),
      statFaultDeratedPs(sg.scalar("faultDeratedPs"))
{
    if (gbps <= 0)
        fatal("link %s: non-positive bandwidth", name_.c_str());
    if (auto *t = eq.tracer(); t && t->enabled(obs::CatNoc)) {
        tr = t;
        trk = t->track(name_, obs::CatNoc);
        nmTx = t->intern("tx");
        nmOutage = t->intern("outage");
        nmCorrupt = t->intern("corrupt");
    }
}

Link::~Link() = default;

void
Link::setFaultModel(std::unique_ptr<fault::FaultModel> m)
{
    faultModel = std::move(m);
}

Tick
Link::serializationTime(unsigned flits) const
{
    return serializationTicks(
        static_cast<std::uint64_t>(flits) * proto::flitBytes, gbps_);
}

Tick
Link::transmit(Message &msg)
{
    Tick start = std::max(eventq.now(), busyUntil);
    Tick ser = serializationTime(msg.flits);
    Tick stall_begin = 0, stall_ps = 0;
    bool corrupt_hit = false;
    if (faultModel) {
        const auto effect = faultModel->onTransmit(
            start, msg.flits * proto::flitBytes * 8, msg);
        if (effect.stallPs > 0) {
            stall_begin = start;
            stall_ps = effect.stallPs;
            start += effect.stallPs;
            statFaultStalledPs += static_cast<double>(effect.stallPs);
        }
        if (effect.serScale != 1.0) {
            const auto derated = static_cast<Tick>(
                static_cast<double>(ser) * effect.serScale + 0.5);
            statFaultDeratedPs += static_cast<double>(derated - ser);
            ser = derated;
        }
        if (effect.corrupted) {
            msg.corrupted = true;
            corrupt_hit = true;
            ++statFaultCorrupted;
        }
    }
    if (tr) {
        tr->complete(trk, nmTx, start, ser);
        if (stall_ps > 0)
            tr->complete(trk, nmOutage, stall_begin, stall_ps);
        if (corrupt_hit)
            tr->instant(trk, nmCorrupt, start, msg.flits);
    }
    busyUntil = start + ser;
    statFlits += msg.flits;
    ++statMessages;
    statBusyPs += static_cast<double>(ser);
    return busyUntil + wireLatency;
}

} // namespace noc
} // namespace dimmlink
