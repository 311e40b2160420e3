/**
 * @file
 * An NMP core in the DIMM's centralized buffer chip. Runs one
 * software thread's operation stream on the shared op-stream engine
 * (dimm/core_engine.hh) and supplies the NMP memory path: private-L1
 * / shared-L2 caching under software-assisted coherence, the local
 * memory controller, and home-DIMM attribution of every reference,
 * which yields the paper's "non-overlapped IDC cycles" (stall time
 * attributable to remote requests).
 */

#ifndef DIMMLINK_DIMM_NMP_CORE_HH
#define DIMMLINK_DIMM_NMP_CORE_HH

#include <functional>

#include "dimm/cache.hh"
#include "dimm/core_engine.hh"
#include "dimm/local_mc.hh"
#include "dram/address_map.hh"

namespace dimmlink {

class SyncManager;

class NmpCore : public CoreEngine
{
  public:
    /** @p fabric: the DIMM's IDC fabric, which the circuit breaker
     * asks about rack routes. Barrier ops arrive at @p barrier;
     * broadcasts leave through @p mc. */
    NmpCore(EventQueue &eq, const std::string &name, DimmId dimm,
            const SystemConfig &cfg, LocalMc &mc, SyncManager &barrier,
            Cache &l1, Cache &l2, const dram::GlobalAddressMap &gmap,
            const idc::Fabric &fabric, stats::Registry &reg);

    /** Per-reference traffic probe for the task-mapping profiler. */
    using TrafficProbe =
        std::function<void(ThreadId, DimmId, std::uint32_t)>;
    void setTrafficProbe(TrafficProbe p) { probe = std::move(p); }

  private:
    void issueRef(const MemRef &ref) override;
    void arriveBarrier(std::function<void()> release) override;
    void broadcast(Addr addr, std::uint64_t bytes,
                   EventCallback done) override;

    DimmId dimm;
    LocalMc &mc;
    SyncManager &barrier;
    Cache &l1;
    Cache &l2;
    const dram::GlobalAddressMap &gmap;
    TrafficProbe probe;

    stats::Scalar &statRemoteRefs;
};

} // namespace dimmlink

#endif // DIMMLINK_DIMM_NMP_CORE_HH
