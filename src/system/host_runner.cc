#include "system/host_runner.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/log.hh"
#include "dimm/core_engine.hh"
#include "workloads/serving.hh"

namespace dimmlink {

/**
 * One OoO-approximated host core: the shared op-stream engine at host
 * frequency and IPC, over the host cache hierarchy and channel-based
 * DRAM access. The host has no fabric to ask about rack routes, so
 * its circuit breaker never trips.
 */
class HostRunner::HostCore : public CoreEngine
{
  public:
    HostCore(HostRunner &owner, unsigned idx)
        : CoreEngine(owner.eventq, "hostcore" + std::to_string(idx),
                     owner.cfg.host.coreFreqMHz,
                     Pace{owner.cfg.host.computeIpc,
                          owner.cfg.host.computeIpc, mshrs},
                     owner.cfg, /*fabric=*/nullptr, /*my_host=*/0,
                     owner.registry),
          owner(owner),
          idx(idx)
    {
    }

  private:
    static constexpr unsigned mshrs = 16;

    void
    issueRef(const MemRef &ref) override
    {
        owner.memAccess(ref.addr, ref.bytes, ref.isWrite, ref.cls, idx,
                        expectResponse(/*remote=*/false));
    }

    void
    arriveBarrier(std::function<void()> release) override
    {
        owner.coreBarrier(std::move(release));
    }

    void
    broadcast(Addr addr, std::uint64_t bytes,
              EventCallback done) override
    {
        owner.broadcast(addr, bytes, std::move(done));
    }

    HostRunner &owner;
    unsigned idx;
};

HostRunner::HostRunner(SystemConfig cfg_) : cfg(std::move(cfg_))
{
    gmap = std::make_unique<dram::GlobalAddressMap>(
        cfg.numDimms, cfg.dimm.capacityBytes);
    for (unsigned c = 0; c < cfg.numChannels; ++c) {
        const std::string name = "host.channel" + std::to_string(c);
        channels.push_back(std::make_unique<host::Channel>(
            eventq, name, cfg.host.channelGBps,
            registry.group(name)));
    }
    const dram::Timing timing = cfg.dramTiming();
    dramPending.resize(cfg.numChannels);
    for (unsigned c = 0; c < cfg.numChannels; ++c) {
        const std::string n = "host.dram" + std::to_string(c);
        dramCtrl.push_back(std::make_unique<dram::DramController>(
            eventq, n, timing, /*num_ranks=*/2, cfg.host.lineBytes,
            registry.group(n), cfg.dramScheduler));
        dramCtrl.back()->setUnblockCallback(
            [this, c] { drainDram(static_cast<ChannelId>(c)); });
    }
    llc = std::make_unique<Cache>(
        "host.llc", cfg.host.llcBytes, cfg.host.llcAssoc,
        cfg.host.lineBytes, registry.group("host.llc"));
    for (unsigned i = 0; i < cfg.host.numCores; ++i) {
        l1s.push_back(std::make_unique<Cache>(
            "hostcore" + std::to_string(i) + ".l1",
            cfg.host.l1Bytes, cfg.host.l1Assoc, cfg.host.lineBytes,
            registry.group("hostcore" + std::to_string(i) + ".l1")));
        cores.push_back(std::make_unique<HostCore>(*this, i));
    }
}

HostRunner::~HostRunner() = default;

void
HostRunner::coreBarrier(std::function<void()> release)
{
    barrierWaiters.push_back(std::move(release));
    if (++barrierArrived < cores.size())
        return;
    barrierArrived = 0;
    auto waiters = std::move(barrierWaiters);
    barrierWaiters.clear();
    eventq.scheduleIn(barrierLatencyPs,
                      [waiters = std::move(waiters)] {
                          for (const auto &w : waiters)
                              w();
                      },
                      EventPriority::Core);
}

void
HostRunner::dramLine(ChannelId ch, Addr addr, bool is_write,
                     EventCallback done)
{
    // DRAM command/array timing first, then the data burst crosses
    // the shared channel.
    auto after = [this, ch, done = std::move(done)]() mutable {
        if (!done)
            return;
        const Tick end =
            channels[ch]->transfer(cfg.host.lineBytes);
        eventq.schedule(end, std::move(done),
                        EventPriority::Delivery);
    };
    auto submit = [this, ch, addr, is_write,
                   after = std::move(after)]() mutable {
        dram::DramRequest req;
        req.local = addr;
        req.isWrite = is_write;
        req.done = std::move(after);
        dramCtrl[ch]->enqueue(std::move(req));
    };
    if (dramCtrl[ch]->full(is_write)) {
        dramPending[ch].push_back(std::move(submit));
        return;
    }
    submit();
}

void
HostRunner::drainDram(ChannelId ch)
{
    while (!dramPending[ch].empty()) {
        if (dramCtrl[ch]->full(false) || dramCtrl[ch]->full(true))
            return;
        auto job = std::move(dramPending[ch].front());
        dramPending[ch].pop_front();
        job();
    }
}

void
HostRunner::memAccess(Addr addr, std::uint32_t bytes, bool is_write,
                      DataClass cls, unsigned core_idx,
                      EventCallback done)
{
    const unsigned line = cfg.host.lineBytes;
    const Addr first = roundDown(addr, line);
    const Addr last = roundDown(addr + bytes - 1, line);

    auto *cd = countdowns.start(
        static_cast<std::size_t>((last - first) / line) + 1,
        std::move(done));
    const auto finish_line = [this, cd] { countdowns.land(cd); };

    for (Addr a = first; a <= last; a += line) {
        // Private data sits in the core's L1 (hardware coherence
        // makes everything cacheable on the host; shared classes go
        // to the inclusive LLC the cores agree on).
        if (cls == DataClass::Private) {
            const Cache::Result r1 =
                l1s[core_idx]->access(a, is_write);
            if (r1.hit) {
                eventq.scheduleIn(cfg.host.l1LatencyPs, finish_line,
                                  EventPriority::Delivery);
                continue;
            }
        }
        const Cache::Result r2 = llc->access(a, is_write);
        if (r2.hit) {
            eventq.scheduleIn(cfg.host.llcLatencyPs, finish_line,
                              EventPriority::Delivery);
            continue;
        }
        if (r2.writeback) {
            // Posted victim writeback: bus plus a DRAM write.
            const ChannelId wch =
                cfg.channelOf(gmap->dimmOf(r2.victimAddr));
            channels[wch]->transfer(line);
            dramLine(wch, r2.victimAddr, /*is_write=*/true, nullptr);
        }
        const ChannelId ch = cfg.channelOf(gmap->dimmOf(a));
        dramLine(ch, a, /*is_write=*/false, finish_line);
    }
}

void
HostRunner::broadcast(Addr addr, std::uint64_t bytes,
                      EventCallback done)
{
    // A CPU "broadcast" is a memcpy into every DIMM's local copy.
    (void)addr;
    Tick last = eventq.now();
    for (unsigned d = 0; d < cfg.numDimms; ++d) {
        const Tick end =
            channels[cfg.channelOf(static_cast<DimmId>(d))]
                ->transfer(bytes);
        last = std::max(last, end);
    }
    eventq.schedule(last, std::move(done), EventPriority::Delivery);
}

RunResult
HostRunner::run(workloads::Workload &wl)
{
    if (wl.params().numThreads != cfg.host.numCores)
        fatal("host baseline expects %u threads, workload has %u",
              cfg.host.numCores, wl.params().numThreads);

    threadsDone = 0;
    allDone = false;
    barrierArrived = 0;
    barrierWaiters.clear();

    const double instr0 =
        registry.sumScalar("hostcore", "instructions");
    const Tick start = eventq.now();

    for (unsigned i = 0; i < cores.size(); ++i) {
        const auto tid = static_cast<ThreadId>(i);
        cores[i]->run(tid, wl.program(tid), [this] {
            if (++threadsDone == cores.size())
                allDone = true;
        });
    }

    while (!allDone && eventq.step()) {
    }
    if (!allDone)
        panic("host event queue drained before the kernel finished");

    RunResult r;
    r.kernelTicks = eventq.now() - start;
    r.coreTimePs =
        static_cast<double>(r.kernelTicks) * cores.size();
    r.instructions = static_cast<std::uint64_t>(
        registry.sumScalar("hostcore", "instructions") - instr0);
    r.verified = wl.verify();
    workloads::serving::aggregate(registry, cfg, r.kernelTicks);
    return r;
}

} // namespace dimmlink
