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

#include "host/forwarder.hh"
#include "host/polling.hh"
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

    void enterNmpMode() override { poll.start(); }
    void exitNmpMode() override { poll.stop(); }

  protected:
    /**
     * Deliver @p bytes at @p addr of DIMM @p src to every other DIMM,
     * then @p finish. MCN-BC: the host replays the payload to each
     * DIMM point-to-point (no hardware broadcast support).
     */
    virtual void broadcast(DimmId src, Addr addr, std::uint32_t bytes,
                           EventCallback finish);

    std::vector<host::Channel *> channels;
    host::Forwarder fwd;
    host::PollingEngine poll;

  private:
    /** Register @p t at its source's polling registers; once the
     * host discovers it, @ref run moves the data. */
    void execute(Transaction t, EventCallback finish) override;
    void run(const Transaction &t, EventCallback finish);
};

} // namespace idc
} // namespace dimmlink

#endif // DIMMLINK_IDC_MCN_FABRIC_HH
