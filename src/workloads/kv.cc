/**
 * @file
 * Key-value serving workload (docs/serving.md): GET/PUT requests over
 * a value store block-partitioned across the DIMMs. Keys follow the
 * Zipfian popularity of serve.zipfTheta, so hot keys concentrate on a
 * few home DIMMs and most requests touch a foreign value -- the
 * request-level analogue of the random-access microbenchmarks. PUTs
 * XOR a deterministic mix into the value so concurrent functional
 * updates commute with the precomputed reference.
 */

#include "workloads/arrivals.hh"
#include "workloads/op_stream.hh"
#include "workloads/serving.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class KvWorkload : public Workload
{
  public:
    KvWorkload(WorkloadParams params_,
               const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          keys(p.serve.keys),
          values(keys, p.serve.valueBytes, p.numDimms, alloc),
          plans(serving::buildPlans(p.serve, p.numThreads, 1))
    {
        // Hedged GETs read a replica of each value block living on a
        // far DIMM (docs/serving.md).
        if (p.serve.hedgeAfterUs > 0)
            values.allocReplica(alloc);
        reset();
    }

    std::string name() const override { return "kv"; }

    void
    reset() override
    {
        store.assign(keys, 0);
        expected.assign(keys, 0);
        // Replay every planned PUT into the reference; XOR updates
        // commute, so the concurrent run matches in any order.
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const auto &plan = plans[t];
            for (std::size_t i = 0; i < plan.reqs.size(); ++i)
                if (!plan.reqs[i].isGet)
                    expected[plan.keys[i]] ^=
                        putMix(plan.keys[i], t, i);
        }
    }

    bool
    verify() const override
    {
        return store == expected;
    }

    std::uint64_t
    approxMemRefs() const override
    {
        return p.serve.requests * values.linesPerRow();
    }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return dimmlink::makeProgram(run(tid));
    }

  private:
    static std::uint64_t
    putMix(std::uint64_t key, unsigned tid, std::uint64_t i)
    {
        return scatterHash(key ^
                           (static_cast<std::uint64_t>(tid) << 40) ^
                           (i * 0x9e3779b9ull));
    }

    /** Line refs over the value at @p base. */
    std::vector<MemRef>
    valueRefs(Addr base, bool is_write) const
    {
        std::vector<MemRef> refs;
        appendLineRefs(refs, base, values.rowBytes(), is_write,
                       DataClass::SharedRW);
        return refs;
    }

    OpStream
    run(ThreadId tid)
    {
        const auto &plan = plans[tid];
        const bool open = p.serve.mode == "open";
        const bool rel = p.serve.relEnabled();
        const bool hedge = p.serve.hedgeAfterUs > 0;
        for (std::size_t i = 0; i < plan.reqs.size(); ++i) {
            const serving::Request &req = plan.reqs[i];
            const std::uint64_t key = plan.keys[i];
            // The home DIMM is the circuit breaker's target: requests
            // carry it only while the reliability layer is on.
            co_yield Op::reqStartServe(
                open ? req.arrivalPs : Op::reqNow, req.shedAfterPs,
                rel ? static_cast<std::int32_t>(values.home(key)) : -1);
            // Hash the key and dispatch to the value's home.
            co_yield Op::compute(16);
            if (!req.isGet)
                store[key] ^= putMix(key, tid, i);
            // Only GETs hedge: duplicating a PUT would double-apply
            // the update when both sides land.
            if (hedge && req.isGet)
                co_yield Op::memHedged(
                    valueRefs(values.addr(key), false),
                    valueRefs(values.replicaAddr(key), false));
            else
                co_yield Op::mem(valueRefs(values.addr(key), !req.isGet));
            // Format the response; reqEnd drains the value refs.
            co_yield Op::compute(16);
            co_yield Op::reqEnd();
        }
        co_yield Op::barrier();
    }

    std::uint64_t keys;
    serving::Table values;
    std::vector<serving::ThreadPlan> plans;
    std::vector<std::uint64_t> store;
    std::vector<std::uint64_t> expected;
};

} // namespace

std::unique_ptr<Workload>
makeKv(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<KvWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
