/**
 * @file
 * The inter-DIMM communication (IDC) fabric interface. Four
 * implementations mirror Table I:
 *
 *   McnFabric  - CPU-forwarding (MCN / UPMEM baseline)
 *   AimFabric  - dedicated multi-drop bus (AIM baseline)
 *   AbcFabric  - intra-channel broadcast (ABC-DIMM baseline)
 *   DlFabric   - DIMM-Link packet routing (this paper)
 */

#ifndef DIMMLINK_IDC_FABRIC_HH
#define DIMMLINK_IDC_FABRIC_HH

#include <functional>
#include <memory>
#include <string>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "host/channel.hh"
#include "sim/event_callback.hh"
#include "sim/event_queue.hh"
#include "sim/record_pool.hh"

namespace dimmlink {
namespace idc {

/** One inter-DIMM transaction submitted by a DIMM's Local MC. */
struct Transaction
{
    enum class Type {
        RemoteRead,  ///< Fetch @ref bytes from dst's DRAM into src.
        RemoteWrite, ///< Push @ref bytes from src into dst's DRAM.
        Broadcast,   ///< Deliver @ref bytes from src to every DIMM.
        SyncMessage, ///< Small control message src -> dst.
    };

    Type type = Type::RemoteRead;
    DimmId src = 0;
    DimmId dst = 0;
    /** DIMM-local address at the destination. */
    Addr addr = 0;
    std::uint32_t bytes = 64;
    /**
     * RemoteRead: data arrived back at src. RemoteWrite: data written
     * at dst. Broadcast: accepted by every DIMM. SyncMessage: arrived
     * at dst. Move-only: a Transaction is moved, never copied.
     */
    EventCallback onComplete;
};

/**
 * Abstract IDC fabric. The System wires in a memory-access callback so
 * remote requests exercise the destination DIMM's DRAM controller.
 */
class Fabric
{
  public:
    /** Perform @p bytes of DRAM access at DIMM @p dimm, then @p done.
     * The hook itself is wired once at build time; the completion it
     * carries per access is move-only. */
    using MemAccessFn =
        std::function<void(DimmId dimm, Addr addr, std::uint32_t bytes,
                           bool is_write, EventCallback done)>;

    Fabric(EventQueue &eq, const SystemConfig &cfg,
           stats::Registry &reg, std::string name);
    virtual ~Fabric() = default;

    /**
     * Count @p t, time it from now until its completion (sampled into
     * latencyPs), and hand it to the implementation's execute().
     */
    void submit(Transaction t);

    /** Kernel start/end hooks (polling engines run only in NA mode). */
    virtual void enterNmpMode() {}
    virtual void exitNmpMode() {}

    void setMemAccess(MemAccessFn f) { memAccess = std::move(f); }

    /**
     * The "distance" between DIMMs seen by the task mapper: 0 for
     * j == k, otherwise the relative cost of one remote access.
     */
    virtual double distance(DimmId j, DimmId k) const;

    /** Live gauges read by the observability sampler. */
    /** Jobs queued at the host forwarder (0 without a forward path). */
    virtual std::size_t forwardBacklog() { return 0; }
    /** DLL packets awaiting ACK across all retry engines. */
    virtual std::size_t dllInFlight() { return 0; }

    /** Multi-line diagnostic snapshot of in-flight state, printed by
     * the hang watchdog and the drained-queue panic path. */
    virtual std::string debugDump() { return ""; }

    /** Does a cross-host request from host a reach host b? The
     * serving circuit breaker asks; true on fabrics without a rack
     * layer. */
    virtual bool routeUp(unsigned /*a*/, unsigned /*b*/) const
    {
        return true;
    }

    const std::string &name() const { return name_; }

  private:
    /** Carry out @p t, then @p finish (its completion already wraps
     * the latency sample and t.onComplete, which is empty here). */
    virtual void execute(Transaction t, EventCallback finish) = 0;

  protected:
    EventQueue &eventq;
    const SystemConfig &cfg;
    stats::Registry &registry;
    std::string name_;
    MemAccessFn memAccess;
    /** Shared completions of fan-outs (broadcast legs, packets). */
    CountdownPool countdowns;

    stats::Scalar &statTransactions;
    stats::Scalar &statBytesViaLink;
    stats::Scalar &statBytesViaHost;
    stats::Scalar &statBytesViaBus;
    stats::Scalar &statBroadcasts;
    stats::Distribution &statLatencyPs;
};

/** Build the fabric cfg.idcMethod names. */
std::unique_ptr<Fabric> makeFabric(EventQueue &eq,
                                   const SystemConfig &cfg,
                                   std::vector<host::Channel *> channels,
                                   stats::Registry &reg);

} // namespace idc
} // namespace dimmlink

#endif // DIMMLINK_IDC_FABRIC_HH
