#include "idc/mcn_fabric.hh"

#include "common/log.hh"

namespace dimmlink {
namespace idc {

namespace {

/** All DIMMs are polled individually under the MCN baseline. */
std::vector<DimmId>
allDimms(const SystemConfig &cfg)
{
    std::vector<DimmId> v(cfg.numDimms);
    for (unsigned i = 0; i < cfg.numDimms; ++i)
        v[i] = static_cast<DimmId>(i);
    return v;
}

} // namespace

McnFabric::McnFabric(EventQueue &eq, const SystemConfig &cfg_,
                     std::vector<host::Channel *> channels_,
                     stats::Registry &reg, std::string name)
    : Fabric(eq, cfg_, reg, std::move(name)),
      channels(channels_),
      fwd(eq, cfg_, channels_, reg),
      poll(eq, cfg_, channels_, allDimms(cfg_), reg)
{
}

void
McnFabric::execute(Transaction t, EventCallback finish)
{
    // The latency clock started at submit, so polling discovery
    // counts toward it.
    const DimmId reg_at = t.src;
    poll.request(reg_at, [this, t = std::move(t),
                          finish = std::move(finish)]() mutable {
        run(t, std::move(finish));
    });
}

void
McnFabric::run(const Transaction &t, EventCallback finish)
{
    const DimmId src = t.src;
    const DimmId dst = t.dst;
    const Addr addr = t.addr;
    const std::uint32_t bytes = t.bytes;

    switch (t.type) {
      case Transaction::Type::RemoteRead: {
        // Host reads the data from the remote DIMM (after its local MC
        // stages it from DRAM) and writes it back to the requester.
        statBytesViaHost += bytes;
        memAccess(dst, addr, bytes, /*is_write=*/false,
                  [this, src, dst, bytes,
                   finish = std::move(finish)]() mutable {
                      fwd.forward(dst, src, bytes, std::move(finish));
                  });
        break;
      }
      case Transaction::Type::RemoteWrite: {
        statBytesViaHost += bytes;
        fwd.forward(src, dst, bytes,
                    [this, dst, addr, bytes,
                     finish = std::move(finish)]() mutable {
                        memAccess(dst, addr, bytes, /*is_write=*/true,
                                  std::move(finish));
                    });
        break;
      }
      case Transaction::Type::Broadcast:
        ++statBroadcasts;
        broadcast(src, addr, bytes, std::move(finish));
        break;
      case Transaction::Type::SyncMessage: {
        statBytesViaHost += bytes;
        fwd.forward(src, dst, bytes, std::move(finish));
        break;
      }
    }
}

void
McnFabric::broadcast(DimmId src, Addr addr, std::uint32_t bytes,
                     EventCallback finish)
{
    memAccess(
        src, addr, bytes, /*is_write=*/false,
        [this, src, bytes, finish = std::move(finish)]() mutable {
            if (cfg.numDimms < 2) {
                finish();
                return;
            }
            auto *cd = countdowns.start(cfg.numDimms - 1,
                                        std::move(finish));
            for (DimmId d = 0; d < cfg.numDimms; ++d) {
                if (d == src)
                    continue;
                statBytesViaHost += bytes;
                fwd.forward(src, d, bytes,
                            [this, cd] { countdowns.land(cd); });
            }
        });
}

} // namespace idc
} // namespace dimmlink
