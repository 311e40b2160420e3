/**
 * @file
 * The MCN / UPMEM-style CPU-forwarding fabric (Table I, column 2).
 * Every inter-DIMM transaction registers in the source DIMM's polling
 * registers, waits for the host to discover it, and is then moved by
 * the host between memory channels — occupying the channel twice and
 * bounding the aggregate IDC bandwidth at #Channel x beta / 2.
 * Fabrics that differ only in how a broadcast reaches the other DIMMs
 * (AbcFabric) derive from it and override broadcast().
 */

#ifndef DIMMLINK_IDC_MCN_FABRIC_HH
#define DIMMLINK_IDC_MCN_FABRIC_HH

#include <vector>

#include "idc/fabric.hh"

namespace dimmlink {
namespace idc {

class McnFabric : public Fabric
{
  public:
    /** @p name is the stats group (Fabric's name). */
    McnFabric(EventQueue &eq, const SystemConfig &cfg,
              std::vector<host::Channel *> channels,
              stats::Registry &reg, std::string name = "fabric.mcn");

    void submit(Transaction t) override;
    void enterNmpMode() override { path.start(); }
    void exitNmpMode() override { path.stop(); }

  protected:
    /**
     * Deliver @p bytes at @p addr of DIMM @p src to every other DIMM,
     * then @p finish. MCN-BC: the host replays the payload to each
     * DIMM point-to-point (no hardware broadcast support).
     */
    virtual void broadcast(DimmId src, Addr addr, std::uint32_t bytes,
                           EventCallback finish);

    std::vector<host::Channel *> channels;
    CpuForwardPath path;

  private:
    void execute(Transaction t, Tick started);
};

} // namespace idc
} // namespace dimmlink

#endif // DIMMLINK_IDC_MCN_FABRIC_HH
