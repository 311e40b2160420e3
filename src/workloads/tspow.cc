/**
 * @file
 * TS.Pow: the synchronization-heavy time-series kernel SynCron uses
 * (Fig. 14-b). Threads slide windows over a partitioned series,
 * compute the per-window power, and maintain a global running
 * maximum behind fine-grained synchronization — the barrier rate is
 * what differentiates the sync schemes.
 */

#include <cmath>

#include "workloads/op_stream.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class TsPowWorkload : public Workload
{
  public:
    static constexpr unsigned windowLen = 64;

    TsPowWorkload(WorkloadParams params_,
                  const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          seriesLen(4096ull << p.scale),
          chunkWindows(16)
    {
        seriesAddr.resize(p.numThreads);
        for (unsigned t = 0; t < p.numThreads; ++t)
            seriesAddr[t] = alloc.alloc(
                sliceHome(t), (wEnd(t) - wStart(t) + windowLen) * 4);
        globalMaxAddr = alloc.alloc(0, 64);

        Rng rng(p.seed);
        series.resize(seriesLen);
        for (auto &v : series)
            v = static_cast<float>(rng.real() * 2.0 - 1.0);
        reset();
    }

    std::string name() const override { return "tspow"; }

    void
    reset() override
    {
        globalMax = -1.0;
        computedMax = -1.0;
    }

    bool
    verify() const override
    {
        double ref = -1.0;
        for (std::uint64_t w = 0; w + windowLen <= seriesLen; ++w) {
            double pow_sum = 0;
            for (unsigned i = 0; i < windowLen; ++i)
                pow_sum += static_cast<double>(series[w + i]) *
                           series[w + i];
            ref = std::max(ref, pow_sum);
        }
        return std::abs(ref - globalMax) < 1e-9;
    }

    std::uint64_t
    approxInstructions() const override
    {
        return seriesLen * windowLen * 2;
    }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return dimmlink::makeProgram(run(tid));
    }

  private:
    std::uint64_t wStart(ThreadId t) const
    {
        return (seriesLen - windowLen + 1) * t / p.numThreads;
    }
    std::uint64_t wEnd(ThreadId t) const
    {
        return (seriesLen - windowLen + 1) * (t + 1) / p.numThreads;
    }

    OpStream
    run(ThreadId tid)
    {
        const std::uint64_t ws = wStart(tid);
        const std::uint64_t we = wEnd(tid);
        // All threads execute the same number of chunks so the
        // barriers stay balanced.
        std::uint64_t max_windows = 0;
        for (unsigned t = 0; t < p.numThreads; ++t)
            max_windows =
                std::max(max_windows, wEnd(t) - wStart(t));
        const std::uint64_t chunks =
            (max_windows + chunkWindows - 1) / chunkWindows;

        double local_max = -1.0;
        for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
            const std::uint64_t cs = ws + chunk * chunkWindows;
            const std::uint64_t ce =
                std::min(we, cs + chunkWindows);

            std::vector<MemRef> batch;
            std::uint64_t instr = 0;
            for (std::uint64_t w = cs; w < ce; ++w) {
                double pow_sum = 0;
                for (unsigned i = 0; i < windowLen; ++i)
                    pow_sum += static_cast<double>(series[w + i]) *
                               series[w + i];
                local_max = std::max(local_max, pow_sum);
                // The sliding window advances one element: one new
                // line read every 16 windows, modeled as a read of
                // the window tail.
                batch.push_back(MemRef{
                    seriesAddr[tid] +
                        static_cast<Addr>(w - ws) * 4,
                    64, false, DataClass::Private});
                instr += windowLen * 2;
            }
            if (!batch.empty()) {
                co_yield Op::compute(instr);
                co_yield Op::mem(std::move(batch));
            }

            // Fine-grained global-max update: read-modify-write on
            // the shared cell, then a barrier (SynCron's pattern).
            if (local_max > globalMax)
                globalMax = local_max;
            std::vector<MemRef> rmw;
            rmw.push_back(MemRef{globalMaxAddr, 8, false,
                                 DataClass::SharedRW});
            rmw.push_back(MemRef{globalMaxAddr, 8, true,
                                 DataClass::SharedRW});
            co_yield Op::mem(std::move(rmw), true);
            co_yield Op::barrier();
        }
        computedMax = std::max(computedMax, local_max);
    }

    std::uint64_t seriesLen;
    std::uint64_t chunkWindows;
    std::vector<float> series;
    std::vector<Addr> seriesAddr;
    Addr globalMaxAddr = 0;
    double globalMax = -1.0;
    double computedMax = -1.0;
};

} // namespace

std::unique_ptr<Workload>
makeTspow(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<TsPowWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
