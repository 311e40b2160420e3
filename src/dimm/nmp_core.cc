#include "dimm/nmp_core.hh"

#include "common/bitfield.hh"
#include "sync/sync_manager.hh"

namespace dimmlink {

NmpCore::NmpCore(EventQueue &eq, const std::string &name, DimmId dimm_,
                 const SystemConfig &cfg_, LocalMc &mc_,
                 SyncManager &barrier_, Cache &l1_, Cache &l2_,
                 const dram::GlobalAddressMap &gmap_,
                 const idc::Fabric &fabric_, stats::Registry &reg)
    // In-order cores: one issue cycle per memory reference.
    : CoreEngine(eq, name, cfg_.dimm.coreFreqMHz,
                 Pace{cfg_.dimm.computeIpc, 1.0,
                      cfg_.dimm.maxOutstanding},
                 cfg_, &fabric_, cfg_.hostOf(dimm_), reg),
      dimm(dimm_),
      mc(mc_),
      barrier(barrier_),
      l1(l1_),
      l2(l2_),
      gmap(gmap_),
      statRemoteRefs(reg.group(name).scalar("remoteRefs"))
{
}

void
NmpCore::issueRef(const MemRef &ref)
{
    const DimmId home = gmap.dimmOf(ref.addr);
    const bool remote = home != dimm;
    if (remote)
        ++statRemoteRefs;
    if (probe)
        probe(threadId(), home, ref.bytes);

    // Software-assisted coherence: shared read-write data bypasses the
    // NMP caches entirely (Section III-E).
    if (ref.cls == DataClass::SharedRW) {
        mc.access(ref.addr, ref.bytes, ref.isWrite,
                  expectResponse(remote));
        return;
    }

    const unsigned line = l1.lineBytes();
    const Addr line_addr = roundDown(ref.addr, line);
    const bool shared_ro = ref.cls == DataClass::SharedRO;

    const Cache::Result r1 = l1.access(ref.addr, ref.isWrite, shared_ro);
    if (r1.hit)
        return; // Pipelined L1 hit.

    if (r1.writeback) {
        // Dirty victim drops into the shared L2.
        const Cache::Result rwb = l2.access(r1.victimAddr, true);
        if (rwb.writeback)
            mc.postedWrite(rwb.victimAddr, line);
    }

    // Fill path: the L2 allocation is clean; dirtiness arrives only
    // through L1 writebacks.
    const Cache::Result r2 = l2.access(ref.addr, false, shared_ro);
    if (r2.hit) {
        queue().scheduleIn(cfg.dimm.l2LatencyPs, expectResponse(remote),
                           EventPriority::Delivery);
        return;
    }
    if (r2.writeback)
        mc.postedWrite(r2.victimAddr, line);

    // Miss to memory: fetch the whole line from its home DIMM.
    mc.access(line_addr, line, /*is_write=*/false,
              expectResponse(remote));
}

void
NmpCore::arriveBarrier(std::function<void()> release)
{
    // Software-assisted coherence: shared read-only lines are
    // invalidated at synchronization points so the next phase
    // re-fetches fresh data (Section III-E).
    l1.invalidateShared();
    l2.invalidateShared();
    barrier.arrive(threadId(), dimm, std::move(release));
}

void
NmpCore::broadcast(Addr addr, std::uint64_t bytes, EventCallback done)
{
    mc.broadcast(addr, bytes, std::move(done));
}

} // namespace dimmlink
