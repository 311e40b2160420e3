/**
 * @file
 * Embedding-table serving workload (docs/serving.md): each request
 * gathers serve.pooling rows of a table block-partitioned across the
 * DIMMs, reduces them (sum pooling over serve.embedDim floats), and
 * writes the pooled vector to thread-private scratch. The gather is
 * the recommendation-inference pattern: many small reads scattered by
 * Zipfian popularity, mostly on foreign DIMMs, with a fence before
 * the reduction.
 */

#include <algorithm>

#include "workloads/arrivals.hh"
#include "workloads/op_stream.hh"
#include "workloads/serving.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class EmbedWorkload : public Workload
{
  public:
    EmbedWorkload(WorkloadParams params_,
                  const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          table(p.serve.keys, p.serve.embedDim * 4, p.numDimms, alloc),
          pooling(p.serve.pooling),
          plans(serving::buildPlans(p.serve, p.numThreads, pooling))
    {
        // Per-thread pooled-output scratch beside the thread's slice.
        outAddr.resize(p.numThreads);
        for (unsigned t = 0; t < p.numThreads; ++t)
            outAddr[t] = alloc.alloc(
                sliceHome(static_cast<ThreadId>(t)), table.rowBytes());
        // Replica table for hedged gathers, allocated after the
        // scratch (docs/serving.md).
        if (p.serve.hedgeAfterUs > 0)
            table.allocReplica(alloc);
        reset();
    }

    std::string name() const override { return "embed"; }

    void
    reset() override
    {
        sums.assign(p.numThreads, 0);
        // Reference: the wrap-around sum of every gathered row's
        // digest; uint64 addition commutes across threads.
        expected = 0;
        for (const auto &plan : plans)
            for (const std::uint64_t row : plan.keys)
                expected += rowDigest(row);
    }

    bool
    verify() const override
    {
        std::uint64_t total = 0;
        for (const std::uint64_t s : sums)
            total += s;
        return total == expected;
    }

    std::uint64_t
    approxMemRefs() const override
    {
        return p.serve.requests * (pooling * table.linesPerRow() + 1);
    }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return dimmlink::makeProgram(run(tid));
    }

  private:
    static std::uint64_t
    rowDigest(std::uint64_t row)
    {
        return scatterHash(row ^ 0xe3bedd1feedull);
    }

    /** 8-wide FMA sum-pooling: pooling * dim multiply-adds. */
    std::uint64_t
    reduceInstr() const
    {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(pooling) *
                   p.serve.embedDim / 4);
    }

    OpStream
    run(ThreadId tid)
    {
        const auto &plan = plans[tid];
        const bool open = p.serve.mode == "open";
        const bool rel = p.serve.relEnabled();
        const bool hedge = p.serve.hedgeAfterUs > 0;
        for (std::size_t i = 0; i < plan.reqs.size(); ++i) {
            // The home DIMM is the circuit breaker's target: requests
            // carry it only while the reliability layer is on.
            co_yield Op::reqStartServe(
                open ? plan.reqs[i].arrivalPs : Op::reqNow,
                plan.reqs[i].shedAfterPs,
                rel ? static_cast<std::int32_t>(
                          table.home(plan.keys[i * pooling]))
                    : -1);
            std::vector<MemRef> refs;
            std::vector<MemRef> hedgeRefs;
            for (unsigned k = 0; k < pooling; ++k) {
                const std::uint64_t row = plan.keys[i * pooling + k];
                sums[tid] += rowDigest(row);
                appendLineRefs(refs, table.addr(row), table.rowBytes(),
                               false, DataClass::SharedRO);
                if (hedge)
                    appendLineRefs(hedgeRefs, table.replicaAddr(row),
                                   table.rowBytes(), false,
                                   DataClass::SharedRO);
            }
            // Fence: every row must land before the reduction. A
            // hedged gather is fenced by construction and the first
            // full fanout (primary table or replica) to land wins.
            if (hedge)
                co_yield Op::memHedged(std::move(refs),
                                       std::move(hedgeRefs));
            else
                co_yield Op::mem(std::move(refs), true);
            co_yield Op::compute(reduceInstr());
            std::vector<MemRef> out;
            appendLineRefs(out, outAddr[tid], table.rowBytes(), true,
                           DataClass::Private);
            co_yield Op::mem(std::move(out));
            co_yield Op::reqEnd();
        }
        co_yield Op::barrier();
    }

    serving::Table table;
    unsigned pooling;
    std::vector<serving::ThreadPlan> plans;
    std::vector<std::uint64_t> sums;
    std::uint64_t expected = 0;
    std::vector<Addr> outAddr;
};

} // namespace

std::unique_ptr<Workload>
makeEmbed(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<EmbedWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
