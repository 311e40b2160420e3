#include "idc/aim_fabric.hh"

namespace dimmlink {
namespace idc {

namespace {

/** Command/snoop packet on the dedicated bus (header-only). */
constexpr unsigned cmdBytes = 16;

} // namespace

AimFabric::AimFabric(EventQueue &eq, const SystemConfig &cfg_,
                     std::vector<host::Channel *> channels_,
                     stats::Registry &reg)
    : Fabric(eq, cfg_, reg, "fabric.aim")
{
    (void)channels_; // AIM bypasses the host memory channels.
    bus = std::make_unique<host::Channel>(
        eq, "fabric.aim.bus", cfg_.bus.busGBps,
        reg.group("fabric.aim.bus"));
}

Tick
AimFabric::busTransfer(std::uint32_t bytes)
{
    // Arbitration delay, then FCFS occupancy of the shared bus.
    statBytesViaBus += bytes;
    return bus->occupy(
        cfg.bus.arbitrationPs +
        serializationTicks(bytes, bus->bandwidthGBps()));
}

void
AimFabric::execute(Transaction t, EventCallback finish)
{
    const DimmId src = t.src;
    const DimmId dst = t.dst;
    const Addr addr = t.addr;
    const std::uint32_t bytes = t.bytes;
    switch (t.type) {
      case Transaction::Type::RemoteRead: {
        // Broadcast the command; the owner snoops it, fetches from
        // DRAM, and puts the data on the bus for the requester.
        const Tick cmd_done = busTransfer(cmdBytes);
        eventq.schedule(
            cmd_done,
            [this, dst, addr, bytes,
             finish = std::move(finish)]() mutable {
                memAccess(dst, addr, bytes, /*is_write=*/false,
                          [this, bytes,
                           finish = std::move(finish)]() mutable {
                              const Tick data_done = busTransfer(bytes);
                              eventq.schedule(data_done,
                                              std::move(finish),
                                              EventPriority::Delivery);
                          });
            },
            EventPriority::Control);
        break;
      }
      case Transaction::Type::RemoteWrite: {
        const Tick done = busTransfer(cmdBytes + bytes);
        eventq.schedule(
            done,
            [this, dst, addr, bytes,
             finish = std::move(finish)]() mutable {
                memAccess(dst, addr, bytes, /*is_write=*/true,
                          std::move(finish));
            },
            EventPriority::Control);
        break;
      }
      case Transaction::Type::Broadcast: {
        // AIM-BC: one bus occupancy reaches every snooping DIMM.
        ++statBroadcasts;
        memAccess(src, addr, bytes, /*is_write=*/false,
                  [this, bytes, finish = std::move(finish)]() mutable {
                      const Tick done = busTransfer(cmdBytes + bytes);
                      eventq.schedule(done, std::move(finish),
                                      EventPriority::Delivery);
                  });
        break;
      }
      case Transaction::Type::SyncMessage: {
        const Tick done = busTransfer(bytes);
        eventq.schedule(done, std::move(finish), EventPriority::Delivery);
        break;
      }
    }
}

} // namespace idc
} // namespace dimmlink
