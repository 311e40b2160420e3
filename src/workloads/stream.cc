/**
 * @file
 * STREAM-triad microworkload: a[i] = b[i] + s * c[i] over
 * thread-private, block-distributed arrays. Entirely local and
 * bandwidth-bound — it validates the rank-parallel local-memory path
 * (the aggregate-NMP-bandwidth side of Fig. 1) and gives the fabrics
 * a lower bound where IDC plays no role.
 */

#include <cmath>

#include "workloads/op_stream.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class StreamWorkload : public Workload
{
  public:
    StreamWorkload(WorkloadParams params_,
                   const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          elems(16384ull << p.scale),
          iterations(p.rounds ? p.rounds : 4u),
          scalar(3.0)
    {
        aAddr.resize(p.numThreads);
        bAddr.resize(p.numThreads);
        cAddr.resize(p.numThreads);
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const std::uint64_t n = end(t) - start(t);
            aAddr[t] = alloc.alloc(sliceHome(t), n * 8);
            bAddr[t] = alloc.alloc(sliceHome(t), n * 8);
            cAddr[t] = alloc.alloc(sliceHome(t), n * 8);
        }
        Rng rng(p.seed);
        b.resize(elems);
        c.resize(elems);
        for (std::uint64_t i = 0; i < elems; ++i) {
            b[i] = rng.real();
            c[i] = rng.real();
        }
        reset();
    }

    std::string name() const override { return "stream"; }

    void reset() override { a.assign(elems, 0.0); }

    bool
    verify() const override
    {
        for (std::uint64_t i = 0; i < elems; ++i)
            if (std::abs(a[i] - (b[i] + scalar * c[i])) > 1e-12)
                return false;
        return true;
    }

    std::uint64_t
    approxMemRefs() const override
    {
        return elems * 3 / 8 * iterations;
    }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return dimmlink::makeProgram(run(tid));
    }

    /** Bytes the kernel moves (for bandwidth reporting). */
    std::uint64_t
    bytesMoved() const
    {
        return elems * 3 * 8 * iterations;
    }

  private:
    std::uint64_t start(ThreadId t) const
    {
        return elems * t / p.numThreads;
    }
    std::uint64_t end(ThreadId t) const
    {
        return elems * (t + 1) / p.numThreads;
    }

    OpStream
    run(ThreadId tid)
    {
        const std::uint64_t s = start(tid);
        const std::uint64_t e = end(tid);

        for (unsigned it = 0; it < iterations; ++it) {
            std::vector<MemRef> batch;
            std::uint64_t instr = 0;
            for (std::uint64_t i = s; i < e; ++i) {
                a[i] = b[i] + scalar * c[i];
                instr += 2;
                // Streams touch one new line of each array per 8
                // elements.
                if ((i - s) % 8 == 0) {
                    const Addr off = (i - s) * 8;
                    batch.push_back(MemRef{bAddr[tid] + off, 64,
                                           false,
                                           DataClass::Private});
                    batch.push_back(MemRef{cAddr[tid] + off, 64,
                                           false,
                                           DataClass::Private});
                    batch.push_back(MemRef{aAddr[tid] + off, 64,
                                           true,
                                           DataClass::Private});
                }
                if (batch.size() >= 32) {
                    co_yield Op::compute(instr);
                    instr = 0;
                    co_yield Op::mem(std::move(batch));
                    batch.clear();
                }
            }
            if (!batch.empty()) {
                co_yield Op::compute(instr);
                co_yield Op::mem(std::move(batch));
                batch.clear();
            }
            co_yield Op::barrier();
        }
    }

    std::uint64_t elems;
    unsigned iterations;
    double scalar;
    std::vector<double> a, b, c;
    std::vector<Addr> aAddr, bAddr, cAddr;
};

} // namespace

std::unique_ptr<Workload>
makeStream(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<StreamWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
