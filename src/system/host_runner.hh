/**
 * @file
 * The 16-core host CPU baseline of Fig. 10: the same workload op
 * streams run on the same op-stream engine as the NMP cores
 * (dimm/core_engine.hh), here as OoO-approximated host cores with an
 * L1 + shared LLC hierarchy and shared-channel DRAM bandwidth — the
 * denominator of every speedup the paper reports. Serving workloads
 * get the same request engine, serve.* reliability knobs included.
 */

#ifndef DIMMLINK_SYSTEM_HOST_RUNNER_HH
#define DIMMLINK_SYSTEM_HOST_RUNNER_HH

#include <deque>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "dimm/cache.hh"
#include "dimm/op.hh"
#include "dram/address_map.hh"
#include "dram/dram_controller.hh"
#include "host/channel.hh"
#include "sim/event_queue.hh"
#include "sim/record_pool.hh"
#include "system/metrics.hh"
#include "workloads/workload.hh"

namespace dimmlink {

/**
 * A self-contained host-CPU machine model (its own event queue and
 * channels; no NMP hardware). Build the workload with
 * numThreads == cfg.host.numCores.
 */
class HostRunner
{
  public:
    explicit HostRunner(SystemConfig cfg);
    ~HostRunner();

    RunResult run(workloads::Workload &wl);

    stats::Registry &stats() { return registry; }

  private:
    class HostCore;

    SystemConfig cfg;
    EventQueue eventq;
    stats::Registry registry;
    std::unique_ptr<dram::GlobalAddressMap> gmap;
    std::vector<std::unique_ptr<host::Channel>> channels;
    /** One real DDR4 controller per channel: host misses pay full
     * DRAM timing (bank conflicts, refresh) plus bus occupancy. */
    std::vector<std::unique_ptr<dram::DramController>> dramCtrl;
    std::vector<std::deque<EventCallback>> dramPending;
    /** Multi-line accesses waiting for their last line. */
    CountdownPool countdowns;
    std::unique_ptr<Cache> llc;
    std::vector<std::unique_ptr<Cache>> l1s;
    std::vector<std::unique_ptr<HostCore>> cores;

    unsigned threadsDone = 0;
    bool allDone = false;

    /** Simple centralized shared-memory barrier. */
    unsigned barrierArrived = 0;
    std::vector<std::function<void()>> barrierWaiters;
    static constexpr Tick barrierLatencyPs = 300 * tickPerNs;

    void coreBarrier(std::function<void()> release);
    void memAccess(Addr addr, std::uint32_t bytes, bool is_write,
                   DataClass cls, unsigned core_idx, EventCallback done);
    /** Line fetch through channel @p ch's DRAM controller + bus. */
    void dramLine(ChannelId ch, Addr addr, bool is_write,
                  EventCallback done);
    void drainDram(ChannelId ch);
    void broadcast(Addr addr, std::uint64_t bytes, EventCallback done);
};

} // namespace dimmlink

#endif // DIMMLINK_SYSTEM_HOST_RUNNER_HH
