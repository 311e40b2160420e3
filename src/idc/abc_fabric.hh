/**
 * @file
 * The ABC-DIMM-style intra-channel broadcast fabric (Table I, column
 * 3). The host issues customized broadcast-read/-write commands on the
 * multi-drop bus of one channel, reaching every DIMM in that channel
 * with a single occupancy; traffic crossing channels and all P2P
 * transactions fall back to CPU forwarding exactly as under MCN, so
 * the fabric is McnFabric with its own broadcast.
 */

#ifndef DIMMLINK_IDC_ABC_FABRIC_HH
#define DIMMLINK_IDC_ABC_FABRIC_HH

#include "idc/mcn_fabric.hh"

namespace dimmlink {
namespace idc {

class AbcFabric : public McnFabric
{
  public:
    AbcFabric(EventQueue &eq, const SystemConfig &cfg,
              std::vector<host::Channel *> channels,
              stats::Registry &reg);

  protected:
    void broadcast(DimmId src, Addr addr, std::uint32_t bytes,
                   EventCallback finish) override;

  private:
    stats::Scalar &statChannelBroadcasts;
};

} // namespace idc
} // namespace dimmlink

#endif // DIMMLINK_IDC_ABC_FABRIC_HH
