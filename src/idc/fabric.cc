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

double
Fabric::distance(DimmId j, DimmId k) const
{
    // Baseline fabrics: every remote DIMM costs the same.
    return j == k ? 0.0 : 1.0;
}

CpuForwardPath::CpuForwardPath(EventQueue &eq, const SystemConfig &cfg,
                               std::vector<host::Channel *> channels,
                               std::vector<DimmId> poll_targets,
                               stats::Registry &reg)
    : eventq(eq),
      fwd(eq, cfg, channels, reg),
      poll(eq, cfg, channels, std::move(poll_targets), reg),
      queued(cfg.numDimms)
{
    poll.setDiscoverHandler([this](DimmId d) { onDiscover(d); });
}

void
CpuForwardPath::request(DimmId target, EventCallback job)
{
    queued[target].push_back(std::move(job));
    poll.requestRaised(target);
}

void
CpuForwardPath::onDiscover(DimmId target)
{
    // Jobs may queue new requests (at this or any target) while they
    // run, so detach the list first; the spare's capacity replaces it.
    std::vector<EventCallback> jobs = std::move(spare);
    jobs.swap(queued[target]);
    for (auto &job : jobs)
        job();
    jobs.clear();
    spare = std::move(jobs);
}

void
CpuForwardPath::stop()
{
    poll.stop();
    for (auto &q : queued)
        q.clear();
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
