/**
 * @file
 * GUPS (giga-updates-per-second) microworkload: random read-modify-
 * write over one table distributed across every DIMM. The purest
 * stress of fine-grained random IDC — nearly every update lands on a
 * foreign DIMM — and the microbenchmark where the fabrics separate
 * the most.
 */

#include "workloads/op_stream.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class GupsWorkload : public Workload
{
  public:
    GupsWorkload(WorkloadParams params_,
                 const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          tableElems(8192ull << p.scale),
          updatesPerThread(2048ull << p.scale)
    {
        // Table block-distributed across DIMMs; the last DIMM's block
        // also holds the remainder (elemAddr).
        const std::uint64_t per_dimm = tableElems / p.numDimms;
        blockAddr.resize(p.numDimms);
        for (unsigned d = 0; d < p.numDimms; ++d) {
            const std::uint64_t elems =
                d + 1 < p.numDimms
                    ? per_dimm
                    : tableElems - (p.numDimms - 1) * per_dimm;
            blockAddr[d] =
                alloc.alloc(static_cast<DimmId>(d), elems * 8);
        }
        reset();
    }

    std::string name() const override { return "gups"; }

    void
    reset() override
    {
        table.assign(tableElems, 0);
        expected.assign(tableElems, 0);
        // Precompute the reference result: the update sequence is
        // deterministic per thread.
        for (unsigned t = 0; t < p.numThreads; ++t) {
            Rng rng(p.seed * 1000003 + t);
            for (std::uint64_t u = 0; u < updatesPerThread; ++u) {
                const std::uint64_t idx = rng.below(tableElems);
                expected[idx] ^= (idx * 0x9e37u) ^ u;
            }
        }
    }

    bool
    verify() const override
    {
        return table == expected;
    }

    std::uint64_t
    approxMemRefs() const override
    {
        return updatesPerThread * p.numThreads * 2;
    }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return dimmlink::makeProgram(run(tid));
    }

  private:
    Addr
    elemAddr(std::uint64_t idx) const
    {
        const std::uint64_t per_dimm = tableElems / p.numDimms;
        const auto d =
            static_cast<DimmId>(std::min<std::uint64_t>(
                idx / per_dimm, p.numDimms - 1));
        const std::uint64_t off =
            idx - static_cast<std::uint64_t>(d) * per_dimm;
        return blockAddr[d] + off * 8;
    }

    OpStream
    run(ThreadId tid)
    {
        // XOR-updates commute, so the concurrent functional updates
        // match the precomputed reference regardless of ordering.
        Rng rng(p.seed * 1000003 + tid);
        std::vector<MemRef> batch;
        std::uint64_t instr = 0;
        for (std::uint64_t u = 0; u < updatesPerThread; ++u) {
            const std::uint64_t idx = rng.below(tableElems);
            table[idx] ^= (idx * 0x9e37u) ^ u;
            const Addr a = elemAddr(idx);
            batch.push_back(MemRef{a, 8, false,
                                   DataClass::SharedRW});
            batch.push_back(MemRef{a, 8, true,
                                   DataClass::SharedRW});
            instr += 4;
            if (batch.size() >= 32) {
                co_yield Op::compute(instr);
                instr = 0;
                co_yield Op::mem(std::move(batch));
                batch.clear();
            }
        }
        if (!batch.empty()) {
            co_yield Op::compute(instr);
            co_yield Op::mem(std::move(batch), true);
        }
        co_yield Op::barrier();
    }

    std::uint64_t tableElems;
    std::uint64_t updatesPerThread;
    std::vector<std::uint64_t> table;
    std::vector<std::uint64_t> expected;
    std::vector<Addr> blockAddr;
};

} // namespace

std::unique_ptr<Workload>
makeGups(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<GupsWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
