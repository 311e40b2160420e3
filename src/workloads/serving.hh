/**
 * @file
 * Shared machinery of the request-level serving workloads
 * (docs/serving.md): per-thread request plans -- arrival ticks,
 * request types and key choices, all precomputed deterministically
 * from serve.seed at workload (re)construction -- and post-run
 * aggregation of the per-core request-latency histograms into the
 * "serve" stats group.
 *
 * Plans are built host-side, before the kernel runs, so the op
 * streams a serving workload emits are a pure function of the config:
 * the same plan drives the NMP kernel and the host baseline.
 */

#ifndef DIMMLINK_WORKLOADS_SERVING_HH
#define DIMMLINK_WORKLOADS_SERVING_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dimmlink {
namespace workloads {
namespace serving {

/** One planned request of one thread. */
struct Request
{
    /** Arrival tick relative to kernel start (open mode only). */
    Tick arrivalPs = 0;
    /** kv: GET (true) or PUT (false); ignored by embed. */
    bool isGet = true;
    /** Load shedding horizon: the arrival of the serve.maxInflight'th
     * later request on this thread; a request still waiting to start
     * past it is shed. 0 = never shed (knob off, closed mode, or no
     * later request that deep in the plan). */
    Tick shedAfterPs = 0;
};

/** One thread's request plan. Request i's keys occupy
 * keys[i * keysPerReq, (i + 1) * keysPerReq). */
struct ThreadPlan
{
    std::vector<Request> reqs;
    std::vector<std::uint64_t> keys;
};

/**
 * Build every thread's plan. The total serve.requests are split
 * evenly across threads (earlier threads absorb the remainder); each
 * thread owns independent arrival and key streams derived from
 * serve.seed, so plans do not depend on thread interleaving.
 * @p keys_per_req is 1 for kv and serve.pooling for embed.
 */
std::vector<ThreadPlan> buildPlans(const ServeConfig &s,
                                   unsigned num_threads,
                                   unsigned keys_per_req);

/**
 * Merge the per-core "reqLatencyPs" histograms into the "serve"
 * group: histogram "latencyPs" plus requests / latencyP50Ps /
 * latencyP95Ps / latencyP99Ps / achievedQps / offeredQps scalars.
 * The reliability scalars (deadlineMisses ... errorRate,
 * goodputQps) are written exactly when cfg.serve.relEnabled().
 * Rebuilt from scratch each call (idempotent); cores are visited in
 * sorted-name order, so the result is deterministic. Returns false
 * (and writes nothing) when no request completed and none was shed,
 * missed or failed.
 */
bool aggregate(stats::Registry &reg, const SystemConfig &cfg,
               Tick kernel_ticks);

} // namespace serving
} // namespace workloads
} // namespace dimmlink

#endif // DIMMLINK_WORKLOADS_SERVING_HH
