/**
 * @file
 * Shared machinery of the request-level serving workloads
 * (docs/serving.md): the block-partitioned table a serving workload
 * reads, per-thread request plans -- arrival ticks, request types and
 * key choices, all precomputed deterministically from serve.seed at
 * workload (re)construction -- and post-run aggregation of the
 * per-core request-latency histograms into the "serve" stats group.
 *
 * Plans are built host-side, before the kernel runs, so the op
 * streams a serving workload emits are a pure function of the config:
 * the same plan drives the NMP kernel and the host baseline.
 */

#ifndef DIMMLINK_WORKLOADS_SERVING_HH
#define DIMMLINK_WORKLOADS_SERVING_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {
namespace serving {

/**
 * A table of fixed-size rows (kv's values, embed's embedding rows)
 * block-partitioned across the DIMMs: DIMM d holds rows
 * [d * perDimm, (d + 1) * perDimm) in one block. Hedged requests read
 * an optional replica of each block, half the pool away.
 */
class Table
{
  public:
    /** Allocate the primary block of every DIMM. */
    Table(std::uint64_t rows, std::uint32_t row_bytes,
          unsigned num_dimms, AddressAllocator &alloc);

    /** Allocate the replica blocks. Called only when hedging is on,
     * after everything else the workload allocates, so every other
     * address -- and every non-hedging run -- is unchanged. */
    void allocReplica(AddressAllocator &alloc);

    /** The DIMM holding row @p row. */
    DimmId
    home(std::uint64_t row) const
    {
        return static_cast<DimmId>(
            std::min<std::uint64_t>(row / perDimm, numDimms - 1));
    }

    /** Address of row @p row in its primary block. */
    Addr
    addr(std::uint64_t row) const
    {
        const DimmId d = home(row);
        return primary[d] + offsetIn(d, row);
    }

    /** Address of row @p row's replica: the same offset, on a DIMM
     * half the pool away so a hedge usually takes an independent
     * route. Needs allocReplica(). */
    Addr
    replicaAddr(std::uint64_t row) const
    {
        const DimmId d = home(row);
        const auto rd = static_cast<DimmId>(
            (static_cast<unsigned>(d) + std::max(1u, numDimms / 2)) %
            numDimms);
        return replica[rd] + offsetIn(d, row);
    }

    std::uint32_t rowBytes() const { return rowBytes_; }

    /** 64-byte lines one row spans. */
    std::uint64_t linesPerRow() const { return (rowBytes_ + 63) / 64; }

  private:
    /** Byte offset of row @p row in DIMM @p d's block. */
    std::uint64_t
    offsetIn(DimmId d, std::uint64_t row) const
    {
        return (row - static_cast<std::uint64_t>(d) * perDimm) *
               rowBytes_;
    }

    std::uint32_t rowBytes_;
    unsigned numDimms;
    std::uint64_t perDimm;
    std::vector<Addr> primary;
    std::vector<Addr> replica; ///< Empty unless hedging is on.
};

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
