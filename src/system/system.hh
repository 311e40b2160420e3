/**
 * @file
 * The full simulated machine: channels, host polling/forwarding, the
 * selected IDC fabric, the NMP DIMMs, and the synchronization
 * manager, assembled from one SystemConfig.
 */

#ifndef DIMMLINK_SYSTEM_SYSTEM_HH
#define DIMMLINK_SYSTEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "dimm/dimm.hh"
#include "dimm/reliability.hh"
#include "host/channel.hh"
#include "idc/fabric.hh"
#include "sim/event_queue.hh"
#include "sync/sync_manager.hh"
#include "system/watchdog.hh"

namespace dimmlink {

namespace obs {
class Tracer;
class Sampler;
} // namespace obs

class System
{
  public:
    explicit System(SystemConfig cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    const SystemConfig &config() const { return cfg; }
    EventQueue &queue() { return eventq; }
    stats::Registry &stats() { return registry; }
    const dram::GlobalAddressMap &addressMap() const { return *gmap; }

    Dimm &dimm(DimmId d) { return *dimms[d]; }
    unsigned numDimms() const
    {
        return static_cast<unsigned>(dimms.size());
    }
    idc::Fabric &fabric() { return *fabric_; }
    SyncManager &sync() { return *sync_; }
    host::Channel &channel(ChannelId c) { return *channels[c]; }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels.size());
    }

    /** Coarse-grained execution flow: HA <-> NA mode switches. */
    void enterNmpMode();
    void exitNmpMode();
    bool inNmpMode() const { return nmpMode; }

    /**
     * Host-Access-mode data movement (Section II-A: before a kernel
     * the host writes data and code into the NMP DIMMs through its
     * memory controller; afterwards it reads the results back).
     * Streams @p bytes at @p global through the DIMM's channel and
     * its DRAM, runs the event queue to completion, and returns the
     * simulated duration. @pre not in NMP-Access mode.
     */
    Tick hostLoad(Addr global, std::uint64_t bytes);
    Tick hostReadback(Addr global, std::uint64_t bytes);

    /** Total busy picoseconds across all channels. */
    double channelBusyPs() const;

    /** The event tracer, or null when obs.trace is off. */
    obs::Tracer *tracer() { return tracer_.get(); }
    /** The counter sampler, or null when obs.sampleIntervalPs is 0. */
    obs::Sampler *sampler() { return sampler_.get(); }
    /** The hang watchdog, or null when watchdog.stallPs is 0. */
    Watchdog *watchdog() { return watchdog_.get(); }

    /**
     * A diagnostic snapshot of in-flight state: queue occupancy,
     * fabric backlogs, busy cores, DLL retry windows. Printed by the
     * watchdog when it fires and by the drained-queue panic path.
     */
    std::string hangDiagnostics();

  private:
    void buildSampler();
    void buildWatchdog();

    Tick hostAccess(Addr global, std::uint64_t bytes, bool is_write);

    SystemConfig cfg;
    EventQueue eventq;
    stats::Registry registry;
    // Built before any component so construction-time track/name
    // registration sees the tracer through eventq.tracer().
    std::unique_ptr<obs::Tracer> tracer_;
    std::unique_ptr<dram::GlobalAddressMap> gmap;
    std::vector<std::unique_ptr<host::Channel>> channels;
    std::unique_ptr<idc::Fabric> fabric_;
    // The DIMMs hold references to the fabric and the sync manager, so
    // both outlive them.
    std::unique_ptr<SyncManager> sync_;
    std::vector<std::unique_ptr<Dimm>> dimms;
    std::unique_ptr<obs::Sampler> sampler_;
    std::unique_ptr<Watchdog> watchdog_;
    bool nmpMode = false;
};

} // namespace dimmlink

#endif // DIMMLINK_SYSTEM_SYSTEM_HH
