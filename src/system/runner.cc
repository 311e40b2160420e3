#include "system/runner.hh"

#include <algorithm>
#include <map>

#include "common/log.hh"
#include "energy/energy_model.hh"
#include "mapping/placement.hh"
#include "workloads/serving.hh"

namespace dimmlink {

Runner::Runner(System &sys_, workloads::Workload &wl_)
    : sys(sys_), wl(wl_)
{
    const auto &p = wl.params();
    if (p.numDimms != sys.config().numDimms)
        fatal("workload built for %u DIMMs on a %u-DIMM system",
              p.numDimms, sys.config().numDimms);
    if (p.numThreads >
        sys.config().numDimms * sys.config().dimm.numCores)
        fatal("%u threads exceed %u cores", p.numThreads,
              sys.config().numDimms * sys.config().dimm.numCores);
}

std::vector<DimmId>
Runner::defaultPlacement() const
{
    // Natural first-touch placement: thread t runs beside its data
    // slice (block distribution over the DIMMs).
    const auto &p = wl.params();
    std::vector<DimmId> map(p.numThreads);
    for (unsigned t = 0; t < p.numThreads; ++t)
        map[t] = workloads::blockHome(t, p.numThreads, p.numDimms);
    return map;
}

void
Runner::launch(const std::vector<DimmId> &map)
{
    currentMap = map;
    sys.sync().setParticipants(map);
    threadsDone = 0;

    // Assign cores in placement order within each DIMM.
    std::map<DimmId, CoreId> next_core;
    for (unsigned t = 0; t < map.size(); ++t) {
        const DimmId d = map[t];
        const CoreId c = next_core[d]++;
        if (c >= sys.config().dimm.numCores)
            fatal("placement puts more than %u threads on DIMM %u",
                  sys.config().dimm.numCores, d);
        sys.dimm(d).core(c).run(
            static_cast<ThreadId>(t), wl.program(t), [this] {
                if (++threadsDone == currentMap.size())
                    allDone = true;
            });
    }
}

void
Runner::attachProbes(mapping::TrafficProfiler &prof,
                     std::uint64_t ref_limit)
{
    for (unsigned d = 0; d < sys.numDimms(); ++d) {
        for (unsigned c = 0; c < sys.config().dimm.numCores; ++c) {
            sys.dimm(static_cast<DimmId>(d))
                .core(static_cast<CoreId>(c))
                .setTrafficProbe([this, &prof, ref_limit](
                                     ThreadId tid, DimmId home,
                                     std::uint32_t bytes) {
                    prof.record(tid, home, bytes);
                    if (prof.totalRefs() >= ref_limit &&
                        !migrationPending && !allDone) {
                        migrationPending = true;
                        sys.queue().scheduleIn(
                            0, [this] { migrate(); },
                            EventPriority::Stat);
                    }
                });
        }
    }
}

void
Runner::detachProbes()
{
    for (unsigned d = 0; d < sys.numDimms(); ++d)
        for (unsigned c = 0; c < sys.config().dimm.numCores; ++c)
            sys.dimm(static_cast<DimmId>(d))
                .core(static_cast<CoreId>(c))
                .setTrafficProbe(nullptr);
}

void
Runner::migrate()
{
    if (allDone)
        return; // Kernel finished before the profile window closed.
    profileEndTick = sys.queue().now();
    detachProbes();

    // Cancel every running core (the same binaries restart with new
    // thread indices; checkpointing is unnecessary, Section IV-B).
    for (unsigned d = 0; d < sys.numDimms(); ++d)
        for (unsigned c = 0; c < sys.config().dimm.numCores; ++c)
            sys.dimm(static_cast<DimmId>(d))
                .core(static_cast<CoreId>(c))
                .cancel();

    const auto placement = mapping::solvePlacement(
        *profiler,
        [this](DimmId j, DimmId k) {
            return sys.fabric().distance(j, k);
        },
        sys.config().dimm.numCores);

    wl.reset();
    launch(placement);
}

RunResult
Runner::run()
{
    auto &reg = sys.stats();
    const auto &cfg = sys.config();

    // Pre-run snapshots of the stats we report as deltas.
    const double stall0 = reg.sumScalar("dimm", "stallRemotePs");
    const double barrier0 = reg.sumScalar("dimm", "barrierPs");
    const double instr0 = reg.sumScalar("dimm", "instructions");
    const double local0 = reg.sumScalar("dimm", "localBytes");
    const double link0 = reg.sumScalar("fabric", "bytesViaLink");
    const double hostb0 = reg.sumScalar("fabric", "bytesViaHost");
    const double busb0 = reg.sumScalar("fabric", "bytesViaBus");
    const double chan0 = sys.channelBusyPs();

    EnergyModel energy(cfg);
    energy.snapshotFrom(reg);

    allDone = false;
    migrationPending = false;
    profileEndTick = 0;

    const Tick start = sys.queue().now();
    sys.enterNmpMode();

    if (cfg.distanceAwareMapping) {
        profiler = std::make_unique<mapping::TrafficProfiler>(
            wl.params().numThreads, cfg.numDimms);
        // Profile roughly cfg.profileFraction of the kernel's
        // references (the paper profiles ~1% of total cycles).
        const std::uint64_t est_refs =
            std::max<std::uint64_t>(wl.approxMemRefs(), 20000);
        const auto limit = std::max<std::uint64_t>(
            200, static_cast<std::uint64_t>(
                     cfg.profileFraction *
                     static_cast<double>(est_refs)));
        attachProbes(*profiler, limit);
    }

    launch(defaultPlacement());

    while (!allDone && sys.queue().step()) {
    }
    if (!allDone)
        panic("event queue drained before the kernel finished\n%s",
              sys.hangDiagnostics().c_str());

    const Tick end = sys.queue().now();
    sys.exitNmpMode();
    detachProbes();

    RunResult r;
    r.kernelTicks = end - start;
    r.profilingTicks = profileEndTick > start
                           ? profileEndTick - start
                           : 0;
    r.idcStallPs = reg.sumScalar("dimm", "stallRemotePs") - stall0;
    r.barrierPs = reg.sumScalar("dimm", "barrierPs") - barrier0;
    r.coreTimePs = static_cast<double>(r.kernelTicks) *
                   wl.params().numThreads;
    r.instructions = static_cast<std::uint64_t>(
        reg.sumScalar("dimm", "instructions") - instr0);
    r.verified = wl.verify();
    r.localBytes = reg.sumScalar("dimm", "localBytes") - local0;
    r.linkBytes = reg.sumScalar("fabric", "bytesViaLink") - link0;
    r.hostBytes = reg.sumScalar("fabric", "bytesViaHost") - hostb0;
    r.busBytes = reg.sumScalar("fabric", "bytesViaBus") - busb0;
    r.busOccupancy =
        (sys.channelBusyPs() - chan0) /
        (static_cast<double>(r.kernelTicks) * sys.numChannels());
    r.energy = energy.report(reg, r.kernelTicks, sys.numDimms());
    // Serving workloads: fold the per-core request-latency histograms
    // into the "serve" group (no-op for the batch kernels).
    workloads::serving::aggregate(reg, cfg, r.kernelTicks);
    return r;
}

} // namespace dimmlink
