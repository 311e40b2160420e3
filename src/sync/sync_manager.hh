/**
 * @file
 * Message-passing barrier synchronization (Section III-D). Two
 * schemes:
 *
 *  - Centralized: one global master NMP core collects an arrival
 *    message from every thread's DIMM and releases everyone directly
 *    (the organization of the MCN / AIM baselines and of the
 *    DIMM-Link-Central configuration in Fig. 14).
 *
 *  - Hierarchical: a master core aggregates arrivals inside each
 *    DIMM, master DIMMs (the middle DIMM of each DL group) aggregate
 *    inside each group, and the group masters coordinate globally,
 *    cutting inter-DIMM traffic and host polling.
 */

#ifndef DIMMLINK_SYNC_SYNC_MANAGER_HH
#define DIMMLINK_SYNC_SYNC_MANAGER_HH

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "idc/fabric.hh"

namespace dimmlink {

class SyncManager
{
  public:
    SyncManager(EventQueue &eq, const SystemConfig &cfg,
                idc::Fabric *fabric, stats::Registry &reg);

    /** Declare where each thread runs (index = ThreadId). Must be
     * called before the first arrive() and after every migration. */
    void setParticipants(std::vector<DimmId> thread_home);

    /**
     * Thread @p tid on DIMM @p dimm reached the barrier. @p release
     * is invoked once every participating thread has arrived and the
     * release notification has propagated back.
     */
    void arrive(ThreadId tid, DimmId dimm,
                std::function<void()> release);

    /** The sync master DIMM of a group (middle of the group). */
    DimmId masterOf(unsigned group) const { return cfg.middleDimmOf(group); }
    /** The global master DIMM. */
    DimmId globalMaster() const;

    /** Completed barrier episodes. */
    std::uint64_t episodes() const
    {
        return static_cast<std::uint64_t>(statEpisodes.value());
    }

  private:
    struct Episode
    {
        unsigned arrivedThreads = 0;
        std::map<DimmId, unsigned> dimmArrived;
        unsigned dimmsComplete = 0;
        std::map<unsigned, unsigned> groupArrived;
        unsigned groupsComplete = 0;
        std::map<DimmId, std::vector<std::function<void()>>> waiting;
    };

    /** Latency of intra-DIMM master-core aggregation. */
    static constexpr Tick intraDimmSyncPs = 50 * tickPerNs;
    /** Sync message payload (single-flit packets). */
    static constexpr unsigned syncMsgBytes = 16;
    /** A master core serializes on handling each sent/received sync
     * message (packetize/decode + counter update). Distributing this
     * serialization is what makes the hierarchy scale. */
    static constexpr Tick masterProcPs = 40 * tickPerNs;

    void sendSync(DimmId src, DimmId dst, std::function<void()> done);
    void dimmComplete(std::shared_ptr<Episode> ep, DimmId dimm);
    void groupComplete(std::shared_ptr<Episode> ep, unsigned group);
    void beginRelease(std::shared_ptr<Episode> ep);
    void releaseDimm(std::shared_ptr<Episode> ep, DimmId dimm);

    EventQueue &eventq;
    const SystemConfig &cfg;
    idc::Fabric *fabric;

    std::vector<DimmId> threadHome;
    std::map<DimmId, unsigned> threadsOn;
    std::map<unsigned, unsigned> dimmsInGroup;
    unsigned activeDimms = 0;
    unsigned activeGroups = 0;

    std::shared_ptr<Episode> current;
    /** Busy-until of each DIMM's master core. */
    std::map<DimmId, Tick> masterFreeAt;

    stats::Scalar &statEpisodes;
    stats::Scalar &statMessages;
    stats::Distribution &statBarrierPs;
    Tick episodeStart = 0;
};

} // namespace dimmlink

#endif // DIMMLINK_SYNC_SYNC_MANAGER_HH
