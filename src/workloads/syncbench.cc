/**
 * @file
 * The synchronization microkernel of Fig. 14-(a): every thread
 * computes for a configurable instruction interval, then hits a
 * barrier, repeated for a fixed number of rounds. Sweeping the
 * interval exposes the cost of each synchronization scheme.
 */

#include "workloads/op_stream.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class SyncBenchWorkload : public Workload
{
  public:
    SyncBenchWorkload(WorkloadParams params_,
                      const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_)
    {
        scratch.resize(p.numThreads);
        for (unsigned t = 0; t < p.numThreads; ++t)
            scratch[t] = alloc.alloc(sliceHome(t), 4096);
    }

    std::string name() const override { return "syncbench"; }

    std::uint64_t
    approxInstructions() const override
    {
        return static_cast<std::uint64_t>(p.rounds) *
               p.syncIntervalInstr * p.numThreads;
    }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return dimmlink::makeProgram(run(tid));
    }

  private:
    OpStream
    run(ThreadId tid)
    {
        for (unsigned round = 0; round < p.rounds; ++round) {
            // The compute interval touches a little local data so
            // the cores are not purely arithmetic.
            co_yield Op::compute(p.syncIntervalInstr);
            co_yield Op::read(scratch[tid] + (round % 64) * 64, 64,
                              DataClass::Private);
            co_yield Op::barrier();
        }
    }

    std::vector<Addr> scratch;
};

} // namespace

std::unique_ptr<Workload>
makeSyncbench(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<SyncBenchWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
