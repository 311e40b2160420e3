#include "idc/abc_fabric.hh"

namespace dimmlink {
namespace idc {

namespace {

std::vector<DimmId>
allDimms(const SystemConfig &cfg)
{
    std::vector<DimmId> v(cfg.numDimms);
    for (unsigned i = 0; i < cfg.numDimms; ++i)
        v[i] = static_cast<DimmId>(i);
    return v;
}

} // namespace

AbcFabric::AbcFabric(EventQueue &eq, const SystemConfig &cfg_,
                     std::vector<host::Channel *> channels_,
                     stats::Registry &reg)
    : Fabric(eq, cfg_, reg, "fabric.abc"),
      channels(channels_),
      path(eq, cfg_, channels_, allDimms(cfg_), reg),
      statChannelBroadcasts(
          reg.group("fabric.abc").scalar("channelBroadcasts"))
{
}

void
AbcFabric::submit(Transaction t)
{
    ++statTransactions;
    const Tick started = eventq.now();
    path.request(t.src, [this, t = std::move(t), started]() mutable {
        execute(std::move(t), started);
    });
}

void
AbcFabric::execute(Transaction t, Tick started)
{
    const DimmId src = t.src;
    const DimmId dst = t.dst;
    const Addr addr = t.addr;
    const std::uint32_t bytes = t.bytes;
    EventCallback finish = [this, cb = std::move(t.onComplete),
                            started]() mutable {
        statLatencyPs.sample(
            static_cast<double>(eventq.now() - started));
        if (cb)
            cb();
    };

    switch (t.type) {
      case Transaction::Type::RemoteRead:
        // P2P cannot use the broadcast bus: plain CPU forwarding.
        statBytesViaHost += bytes;
        memAccess(dst, addr, bytes, /*is_write=*/false,
                  [this, src, dst, bytes,
                   finish = std::move(finish)]() mutable {
                      path.forwarder().copy(dst, src, bytes,
                                            std::move(finish));
                  });
        break;
      case Transaction::Type::RemoteWrite:
        statBytesViaHost += bytes;
        path.forwarder().copy(
            src, dst, bytes,
            [this, dst, addr, bytes,
             finish = std::move(finish)]() mutable {
                memAccess(dst, addr, bytes, /*is_write=*/true,
                          std::move(finish));
            });
        break;
      case Transaction::Type::Broadcast:
        ++statBroadcasts;
        executeBroadcast(src, addr, bytes, std::move(finish));
        break;
      case Transaction::Type::SyncMessage:
        statBytesViaHost += bytes;
        path.forwarder().copy(src, dst, bytes, std::move(finish));
        break;
    }
}

void
AbcFabric::executeBroadcast(DimmId src, Addr addr, std::uint32_t bytes,
                            EventCallback finish)
{
    memAccess(
        src, addr, bytes, /*is_write=*/false,
        [this, src, bytes, finish = std::move(finish)]() mutable {
            // Broadcast-read on the source channel: one occupancy
            // delivers the data to every sibling DIMM there, and the
            // host receives a copy off the shared bus.
            const ChannelId src_ch = cfg.channelOf(src);
            ++statChannelBroadcasts;
            statBytesViaHost += bytes;
            Tick last = channels[src_ch]->transfer(bytes);
            // Broadcast-write on every other channel: the host pushes
            // the payload once per channel; the multi-drop bus fans it
            // out to all DIMMs of that channel. Writes to distinct
            // channels proceed in parallel through the host MC queues.
            for (ChannelId c = 0; c < cfg.numChannels; ++c) {
                if (c == src_ch)
                    continue;
                ++statChannelBroadcasts;
                statBytesViaHost += bytes;
                const Tick end = channels[c]->occupy(
                    serializationTicks(bytes,
                                       channels[c]->bandwidthGBps()),
                    eventq.now() + cfg.host.forwardLatencyPs);
                last = std::max(last, end);
            }
            eventq.schedule(last, std::move(finish),
                            EventPriority::Delivery);
        });
}

namespace {

FabricFactory::Registrar regAbc("ABC-DIMM",
    [](EventQueue &eq, const SystemConfig &cfg,
       std::vector<host::Channel *> channels, stats::Registry &reg)
        -> std::unique_ptr<Fabric> {
        return std::make_unique<AbcFabric>(eq, cfg, std::move(channels),
                                       reg);
    });

} // namespace

} // namespace idc
} // namespace dimmlink
