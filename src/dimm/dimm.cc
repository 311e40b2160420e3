#include "dimm/dimm.hh"

namespace dimmlink {

Dimm::Dimm(EventQueue &eq, DimmId id, const SystemConfig &cfg,
           const dram::Timing &timing,
           const dram::GlobalAddressMap &gmap, idc::Fabric &fabric,
           SyncManager &sync, stats::Registry &reg)
    : id_(id)
{
    const std::string base = "dimm" + std::to_string(id);

    mc = std::make_unique<LocalMc>(eq, base + ".mc", id, cfg, timing,
                                   gmap, fabric, reg);

    l2 = std::make_unique<Cache>(base + ".l2", cfg.dimm.l2Bytes,
                                 cfg.dimm.l2Assoc, cfg.dimm.lineBytes,
                                 reg.group(base + ".l2"));

    for (unsigned c = 0; c < cfg.dimm.numCores; ++c) {
        const std::string cname =
            base + ".core" + std::to_string(c);
        l1s.push_back(std::make_unique<Cache>(
            cname + ".l1", cfg.dimm.l1Bytes, cfg.dimm.l1Assoc,
            cfg.dimm.lineBytes, reg.group(cname + ".l1")));
        cores.push_back(std::make_unique<NmpCore>(
            eq, cname, id, cfg, *mc, sync, *l1s.back(), *l2, gmap, fabric,
            reg));
    }
}

void
Dimm::flushCaches()
{
    for (auto &l1 : l1s) {
        const unsigned dirty = l1->flush();
        // Dirty L1 lines spill into the L2's stats-free flush; the
        // final DRAM writeback traffic is modest and posted.
        (void)dirty;
    }
    l2->flush();
}

} // namespace dimmlink
