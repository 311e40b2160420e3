#include "idc/fabric.hh"

#include "common/log.hh"
#include "idc/abc_fabric.hh"
#include "idc/aim_fabric.hh"
#include "idc/dl_fabric.hh"
#include "idc/mcn_fabric.hh"

namespace dimmlink {
namespace idc {

Fabric::Fabric(EventQueue &eq, const SystemConfig &cfg_,
               stats::Registry &reg, std::string name)
    : eventq(eq),
      cfg(cfg_),
      registry(reg),
      name_(std::move(name)),
      statTransactions(reg.group(name_).scalar("transactions")),
      statBytesViaLink(reg.group(name_).scalar("bytesViaLink")),
      statBytesViaHost(reg.group(name_).scalar("bytesViaHost")),
      statBytesViaBus(reg.group(name_).scalar("bytesViaBus")),
      statBroadcasts(reg.group(name_).scalar("broadcasts")),
      statLatencyPs(reg.group(name_).distribution("latencyPs"))
{
}

void
Fabric::submit(Transaction t)
{
    ++statTransactions;
    const Tick started = eventq.now();
    EventCallback finish = [this, cb = std::move(t.onComplete),
                            started]() mutable {
        statLatencyPs.sample(static_cast<double>(eventq.now() - started));
        if (cb)
            cb();
    };
    execute(std::move(t), std::move(finish));
}

double
Fabric::distance(DimmId j, DimmId k) const
{
    // Baseline fabrics: every remote DIMM costs the same.
    return j == k ? 0.0 : 1.0;
}

std::unique_ptr<Fabric>
makeFabric(EventQueue &eq, const SystemConfig &cfg,
           std::vector<host::Channel *> channels, stats::Registry &reg)
{
    switch (cfg.idcMethod) {
      case IdcMethod::CpuForwarding:
        return std::make_unique<McnFabric>(eq, cfg, std::move(channels),
                                           reg);
      case IdcMethod::DedicatedBus:
        return std::make_unique<AimFabric>(eq, cfg, std::move(channels),
                                           reg);
      case IdcMethod::ChannelBroadcast:
        return std::make_unique<AbcFabric>(eq, cfg, std::move(channels),
                                           reg);
      case IdcMethod::DimmLink:
        return std::make_unique<DlFabric>(eq, cfg, std::move(channels),
                                          reg);
    }
    panic("unknown IDC method %d", static_cast<int>(cfg.idcMethod));
}

} // namespace idc
} // namespace dimmlink
