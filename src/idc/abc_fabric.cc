#include "idc/abc_fabric.hh"

namespace dimmlink {
namespace idc {

AbcFabric::AbcFabric(EventQueue &eq, const SystemConfig &cfg_,
                     std::vector<host::Channel *> channels_,
                     stats::Registry &reg)
    : McnFabric(eq, cfg_, std::move(channels_), reg, "fabric.abc"),
      statChannelBroadcasts(
          reg.group("fabric.abc").scalar("channelBroadcasts"))
{
}

void
AbcFabric::broadcast(DimmId src, Addr addr, std::uint32_t bytes,
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

} // namespace idc
} // namespace dimmlink
