/**
 * @file
 * The AIM-style dedicated-bus fabric (Table I, column 4): one shared
 * multi-drop bus connects every DIMM. NMP cores transfer data without
 * host involvement, but all DIMMs arbitrate for the single bus, so
 * per-DIMM bandwidth shrinks as beta / #DIMM. Snooping gives the bus
 * a natural broadcast mode (AIM-BC).
 */

#ifndef DIMMLINK_IDC_AIM_FABRIC_HH
#define DIMMLINK_IDC_AIM_FABRIC_HH

#include <memory>

#include "idc/fabric.hh"

namespace dimmlink {
namespace idc {

class AimFabric : public Fabric
{
  public:
    AimFabric(EventQueue &eq, const SystemConfig &cfg,
              std::vector<host::Channel *> channels,
              stats::Registry &reg);

  private:
    void execute(Transaction t, EventCallback finish) override;

    /** Bus occupancy for @p bytes, starting after arbitration. */
    Tick busTransfer(std::uint32_t bytes);

    /** The dedicated bus is modeled as one shared channel. */
    std::unique_ptr<host::Channel> bus;
};

} // namespace idc
} // namespace dimmlink

#endif // DIMMLINK_IDC_AIM_FABRIC_HH
