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
          rows(p.serve.keys),
          rowBytes(p.serve.embedDim * 4),
          pooling(p.serve.pooling),
          perDimm((rows + p.numDimms - 1) / p.numDimms),
          plans(serving::buildPlans(p.serve, p.numThreads, pooling))
    {
        blockAddr.resize(p.numDimms);
        for (unsigned d = 0; d < p.numDimms; ++d)
            blockAddr[d] = alloc.alloc(static_cast<DimmId>(d),
                                       perDimm * rowBytes);
        // Per-thread pooled-output scratch beside the thread's slice.
        outAddr.resize(p.numThreads);
        for (unsigned t = 0; t < p.numThreads; ++t)
            outAddr[t] = alloc.alloc(
                sliceHome(static_cast<ThreadId>(t)), rowBytes);
        // Replica table for hedged gathers, allocated last so every
        // primary and scratch address is unchanged when hedging is
        // off (docs/serving.md).
        if (p.serve.hedgeAfterUs > 0) {
            replicaAddr_.resize(p.numDimms);
            for (unsigned d = 0; d < p.numDimms; ++d)
                replicaAddr_[d] = alloc.alloc(static_cast<DimmId>(d),
                                              perDimm * rowBytes);
        }
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
    approxInstructions() const override
    {
        return p.serve.requests * reduceInstr();
    }

    std::uint64_t
    approxMemRefs() const override
    {
        return p.serve.requests * (pooling * refsPerRow() + 1);
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

    std::uint64_t
    refsPerRow() const
    {
        return (rowBytes + 63) / 64;
    }

    /** 8-wide FMA sum-pooling: pooling * dim multiply-adds. */
    std::uint64_t
    reduceInstr() const
    {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(pooling) *
                   p.serve.embedDim / 4);
    }

    DimmId
    rowDimm(std::uint64_t row) const
    {
        return static_cast<DimmId>(
            std::min<std::uint64_t>(row / perDimm, p.numDimms - 1));
    }

    Addr
    rowAddr(std::uint64_t row) const
    {
        const DimmId d = rowDimm(row);
        const std::uint64_t off =
            row - static_cast<std::uint64_t>(d) * perDimm;
        return blockAddr[d] + off * rowBytes;
    }

    /** The row's replica slot: same offset, on a DIMM half the pool
     * away so the hedged gather takes independent routes. */
    Addr
    rowReplicaAddr(std::uint64_t row) const
    {
        const DimmId d = rowDimm(row);
        const std::uint64_t off =
            row - static_cast<std::uint64_t>(d) * perDimm;
        const auto rd = static_cast<DimmId>(
            (static_cast<unsigned>(d) +
             std::max(1u, p.numDimms / 2)) % p.numDimms);
        return replicaAddr_[rd] + off * rowBytes;
    }

    void
    pushRowRefs(std::vector<MemRef> &refs, Addr base) const
    {
        for (std::uint32_t off = 0; off < rowBytes; off += 64) {
            const auto chunk = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(64, rowBytes - off));
            refs.push_back(MemRef{base + off, chunk, false,
                                  DataClass::SharedRO});
        }
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
                          rowDimm(plan.keys[i * pooling]))
                    : -1);
            std::vector<MemRef> refs;
            std::vector<MemRef> hedgeRefs;
            for (unsigned k = 0; k < pooling; ++k) {
                const std::uint64_t row = plan.keys[i * pooling + k];
                sums[tid] += rowDigest(row);
                pushRowRefs(refs, rowAddr(row));
                if (hedge)
                    pushRowRefs(hedgeRefs, rowReplicaAddr(row));
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
            for (std::uint32_t off = 0; off < rowBytes; off += 64) {
                const auto chunk = static_cast<std::uint16_t>(
                    std::min<std::uint32_t>(64, rowBytes - off));
                out.push_back(MemRef{outAddr[tid] + off, chunk, true,
                                     DataClass::Private});
            }
            co_yield Op::mem(std::move(out));
            co_yield Op::reqEnd();
        }
        co_yield Op::barrier();
    }

    std::uint64_t rows;
    std::uint32_t rowBytes;
    unsigned pooling;
    std::uint64_t perDimm;
    std::vector<serving::ThreadPlan> plans;
    std::vector<std::uint64_t> sums;
    std::uint64_t expected = 0;
    std::vector<Addr> outAddr;
    std::vector<Addr> blockAddr;
    std::vector<Addr> replicaAddr_; ///< Empty unless hedging is on.
};

} // namespace

std::unique_ptr<Workload>
makeEmbed(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<EmbedWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
