#include "system/system.hh"

#include <sstream>

#include "common/log.hh"
#include "dram/timing.hh"
#include "obs/sampler.hh"
#include "obs/tracer.hh"

namespace dimmlink {

System::System(SystemConfig cfg_) : cfg(std::move(cfg_))
{
    cfg.validate();

    if (cfg.obs.trace) {
        tracer_ = std::make_unique<obs::Tracer>(
            obs::categoryMaskFromString(cfg.obs.categories),
            cfg.obs.ringCapacity);
        eventq.setTracer(tracer_.get());
    }

    gmap = std::make_unique<dram::GlobalAddressMap>(
        cfg.numDimms, cfg.dimm.capacityBytes);

    for (unsigned c = 0; c < cfg.numChannels; ++c) {
        const std::string name =
            "host.channel" + std::to_string(c);
        channels.push_back(std::make_unique<host::Channel>(
            eventq, name, cfg.host.channelGBps,
            registry.group(name)));
    }

    std::vector<host::Channel *> chan_ptrs;
    for (auto &ch : channels)
        chan_ptrs.push_back(ch.get());
    fabric_ = idc::makeFabric(eventq, cfg, chan_ptrs, registry);
    sync_ = std::make_unique<SyncManager>(eventq, cfg, fabric_.get(),
                                          registry);

    const dram::Timing timing = cfg.dramTiming();
    for (unsigned d = 0; d < cfg.numDimms; ++d)
        dimms.push_back(std::make_unique<Dimm>(
            eventq, static_cast<DimmId>(d), cfg, timing, *gmap,
            *fabric_, *sync_, registry));

    // Wire remote memory accesses into the destination DIMM's MC.
    fabric_->setMemAccess([this](DimmId d, Addr addr,
                                 std::uint32_t bytes, bool is_write,
                                 EventCallback done) {
        dimms[d]->localMc().remoteAccess(addr, bytes, is_write,
                                         std::move(done));
    });

    if (cfg.obs.sampleIntervalPs > 0)
        buildSampler();
    if (cfg.watchdog.stallPs > 0)
        buildWatchdog();
}

System::~System() = default;

void
System::buildSampler()
{
    sampler_ = std::make_unique<obs::Sampler>(
        eventq, cfg.obs.sampleIntervalPs, tracer_.get());

    // Cumulative stats become per-interval deltas; sumScalar() is
    // find-based, so probes over stats a given fabric doesn't register
    // simply read as a flat zero.
    auto delta = [this](const char *label, std::string prefix,
                        std::string stat) {
        sampler_->addProbe(
            label,
            [this, prefix = std::move(prefix),
             stat = std::move(stat)] {
                return registry.sumScalar(prefix, stat);
            },
            /*cumulative=*/true);
    };
    delta("linkFlits", "fabric.", "flits");
    delta("dramReads", "dimm", "reads");
    delta("dramWrites", "dimm", "writes");
    delta("dramActivates", "dimm", "activates");
    delta("coreStallRemotePs", "dimm", "stallRemotePs");
    delta("hostForwards", "host.forwarder", "forwards");
    delta("dllRetries", "fabric.dl", "dllRetries");
    delta("dllFailovers", "fabric.dl", "dllFailovers");

    // Live occupancy gauges.
    sampler_->addProbe(
        "forwardBacklog",
        [this] {
            return static_cast<double>(fabric_->forwardBacklog());
        },
        /*cumulative=*/false);
    sampler_->addProbe(
        "dllInFlight",
        [this] {
            return static_cast<double>(fabric_->dllInFlight());
        },
        /*cumulative=*/false);

    sampler_->start();
}

void
System::buildWatchdog()
{
    watchdog_ = std::make_unique<Watchdog>(eventq, cfg.watchdog.stallPs);
    // Progress = any of these counters moving. Together they cover
    // every layer that can be the last one still working: the cores,
    // the DRAM controllers, the host forwarder, and the DLL transport.
    auto sum = [this](std::string prefix, std::string stat) {
        return [this, prefix = std::move(prefix),
                stat = std::move(stat)] {
            return registry.sumScalar(prefix, stat);
        };
    };
    watchdog_->addProgress("instructions", sum("dimm", "instructions"));
    watchdog_->addProgress("dramReads", sum("dimm", "reads"));
    watchdog_->addProgress("dramWrites", sum("dimm", "writes"));
    watchdog_->addProgress("hostForwards",
                           sum("host.forwarder", "forwards"));
    watchdog_->addProgress("dllAcked", sum("fabric.dl", "dllAcked"));
    watchdog_->addDumper([this] { return hangDiagnostics(); });
}

std::string
System::hangDiagnostics()
{
    std::ostringstream os;
    os << "queue: now=" << eventq.now() << " pending=" << eventq.size()
       << " executed=" << eventq.executed() << "\n";
    os << "fabric: forwardBacklog=" << fabric_->forwardBacklog()
       << " dllInFlight=" << fabric_->dllInFlight() << "\n";
    for (unsigned d = 0; d < numDimms(); ++d) {
        for (unsigned c = 0; c < cfg.dimm.numCores; ++c) {
            auto &core = dimms[d]->core(static_cast<CoreId>(c));
            if (!core.busy())
                continue;
            os << "  dimm" << d << ".core" << c << ": busy (thread "
               << core.threadId() << ")\n";
        }
    }
    os << fabric_->debugDump();
    return os.str();
}

void
System::enterNmpMode()
{
    if (nmpMode)
        panic("already in NMP-Access mode");
    nmpMode = true;
    fabric_->enterNmpMode();
    if (watchdog_)
        watchdog_->arm();
}

void
System::exitNmpMode()
{
    if (!nmpMode)
        panic("not in NMP-Access mode");
    nmpMode = false;
    if (watchdog_)
        watchdog_->disarm();
    fabric_->exitNmpMode();
    // Kernel end: NMP caches flush so the host sees fresh DRAM.
    for (auto &dimm : dimms)
        dimm->flushCaches();
}

Tick
System::hostAccess(Addr global, std::uint64_t bytes, bool is_write)
{
    if (nmpMode)
        panic("host DRAM access while the DIMMs are in NMP-Access "
              "mode (Section III-E forbids concurrent access)");
    const Tick start = eventq.now();
    const unsigned line = cfg.dimm.lineBytes;
    std::uint64_t outstanding = 0;

    for (Addr a = global; a < global + bytes; a += line) {
        const DimmId d = gmap->dimmOf(a);
        // The burst crosses the DIMM's channel, then the DIMM's DRAM
        // performs the access (the host MC owns the devices in HA
        // mode, but the same rank timing applies).
        channels[cfg.channelOf(d)]->transfer(line);
        ++outstanding;
        dimms[d]->localMc().remoteAccess(
            gmap->localOf(a), line, is_write, [&outstanding] {
                --outstanding;
            });
    }
    while (outstanding > 0 && eventq.step()) {
    }
    if (outstanding > 0)
        panic("host access did not drain");
    return eventq.now() - start;
}

Tick
System::hostLoad(Addr global, std::uint64_t bytes)
{
    return hostAccess(global, bytes, /*is_write=*/true);
}

Tick
System::hostReadback(Addr global, std::uint64_t bytes)
{
    return hostAccess(global, bytes, /*is_write=*/false);
}

double
System::channelBusyPs() const
{
    double sum = 0;
    for (const auto &ch : channels)
        sum += ch->busyPs();
    return sum;
}

} // namespace dimmlink
