/**
 * @file
 * One NMP DIMM with the centralized buffer-chip architecture: NMP
 * cores with private L1s and a shared L2, and the Local MC with
 * rank-parallel DRAM controllers. The DIMM's DL-Controller (its DLL
 * retry engine) lives in idc::DlFabric, the one component that drives
 * it.
 */

#ifndef DIMMLINK_DIMM_DIMM_HH
#define DIMMLINK_DIMM_DIMM_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "dimm/cache.hh"
#include "dimm/local_mc.hh"
#include "dimm/nmp_core.hh"

namespace dimmlink {

class Dimm
{
  public:
    /** @p fabric and @p sync: the IDC fabric and the sync manager the
     * MC and cores talk to. Both outlive the DIMM. */
    Dimm(EventQueue &eq, DimmId id, const SystemConfig &cfg,
         const dram::Timing &timing,
         const dram::GlobalAddressMap &gmap, idc::Fabric &fabric,
         SyncManager &sync, stats::Registry &reg);

    DimmId id() const { return id_; }

    NmpCore &core(CoreId c) { return *cores[c]; }
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores.size());
    }
    LocalMc &localMc() { return *mc; }
    Cache &l2Cache() { return *l2; }

    /** Kernel end (Section III-E): NMP caches flush so the host can
     * fetch results from DRAM. */
    void flushCaches();

  private:
    DimmId id_;
    std::unique_ptr<LocalMc> mc;
    std::vector<std::unique_ptr<Cache>> l1s;
    std::unique_ptr<Cache> l2;
    std::vector<std::unique_ptr<NmpCore>> cores;
};

} // namespace dimmlink

#endif // DIMMLINK_DIMM_DIMM_HH
