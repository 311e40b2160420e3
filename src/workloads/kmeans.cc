/**
 * @file
 * K-Means clustering (Table IV). Points are thread-private and
 * block-distributed; the centroid table is a shared structure homed
 * on DIMM 0 that every thread re-reads each iteration (the
 * broadcast-unfriendly shared-read pattern the paper cites), and
 * thread 0 gathers every thread's partial sums to recompute the
 * centroids.
 */

#include <cmath>

#include "workloads/op_stream.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class KmeansWorkload : public Workload
{
  public:
    static constexpr unsigned k = 8;   ///< clusters
    static constexpr unsigned dim = 8; ///< feature dimensions

    KmeansWorkload(WorkloadParams params_,
                   const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          numPoints(1024ull << p.scale),
          iterations(p.rounds ? std::min(p.rounds, 10u) : 6u)
    {
        // Points: block distribution, thread-private.
        pointAddr.resize(p.numThreads);
        sumAddr.resize(p.numThreads);
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const std::uint64_t cnt = pEnd(t) - pStart(t);
            pointAddr[t] = alloc.alloc(sliceHome(t),
                                       cnt * dim * 4);
            // Partial sums + counts, gathered by thread 0.
            sumAddr[t] = alloc.alloc(sliceHome(t),
                                     k * (dim + 1) * 8);
        }
        centroidAddr = alloc.alloc(0, k * dim * 4);

        // Deterministic synthetic data around k seeded centers.
        Rng rng(p.seed);
        points.resize(numPoints * dim);
        std::vector<double> centers(k * dim);
        for (auto &c : centers)
            c = rng.real() * 100.0;
        for (std::uint64_t i = 0; i < numPoints; ++i) {
            const unsigned c = static_cast<unsigned>(rng.below(k));
            for (unsigned d = 0; d < dim; ++d)
                points[i * dim + d] =
                    centers[c * dim + d] + (rng.real() - 0.5) * 8.0;
        }
        reset();
    }

    std::string name() const override { return "kmeans"; }

    void
    reset() override
    {
        centroids.assign(k * dim, 0.0);
        for (unsigned c = 0; c < k; ++c)
            for (unsigned d = 0; d < dim; ++d)
                centroids[c * dim + d] = points[c * dim + d];
        assignment.assign(numPoints, 0);
        partial.assign(
            static_cast<std::size_t>(p.numThreads) * k * (dim + 1),
            0.0);
    }

    bool
    verify() const override
    {
        // Re-run the same algorithm sequentially.
        std::vector<double> cent(k * dim);
        for (unsigned c = 0; c < k; ++c)
            for (unsigned d = 0; d < dim; ++d)
                cent[c * dim + d] = points[c * dim + d];
        std::vector<std::uint32_t> assign(numPoints, 0);
        for (unsigned it = 0; it < iterations; ++it) {
            std::vector<double> sum(k * dim, 0.0);
            std::vector<double> cnt(k, 0.0);
            for (std::uint64_t i = 0; i < numPoints; ++i) {
                assign[i] = nearest(points.data() + i * dim,
                                    cent.data());
                cnt[assign[i]] += 1;
                for (unsigned d = 0; d < dim; ++d)
                    sum[assign[i] * dim + d] +=
                        points[i * dim + d];
            }
            for (unsigned c = 0; c < k; ++c)
                if (cnt[c] > 0)
                    for (unsigned d = 0; d < dim; ++d)
                        cent[c * dim + d] = sum[c * dim + d] / cnt[c];
        }
        return assign == assignment;
    }

    std::uint64_t
    approxMemRefs() const override
    {
        return (numPoints + p.numThreads * 32) * iterations;
    }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return dimmlink::makeProgram(run(tid));
    }

  private:
    static unsigned
    nearest(const float *pt, const double *cent)
    {
        unsigned best = 0;
        double best_d = 1e300;
        for (unsigned c = 0; c < k; ++c) {
            double d2 = 0;
            for (unsigned d = 0; d < dim; ++d) {
                const double diff = pt[d] - cent[c * dim + d];
                d2 += diff * diff;
            }
            if (d2 < best_d) {
                best_d = d2;
                best = c;
            }
        }
        return best;
    }

    std::uint64_t pStart(ThreadId t) const
    {
        return numPoints * t / p.numThreads;
    }
    std::uint64_t pEnd(ThreadId t) const
    {
        return numPoints * (t + 1) / p.numThreads;
    }

    OpStream
    run(ThreadId tid)
    {
        const std::uint64_t ps = pStart(tid);
        const std::uint64_t pe = pEnd(tid);

        for (unsigned it = 0; it < iterations; ++it) {
            // Fetch the shared centroid table (remote for most
            // DIMMs; k*dim*4 = 256 bytes = 4 lines).
            {
                // Centroids are read-only during the assignment
                // phase; the barrier invalidates the cached copies
                // before thread 0 rewrites them.
                std::vector<MemRef> refs;
                for (unsigned off = 0; off < k * dim * 4; off += 64)
                    refs.push_back(MemRef{centroidAddr + off, 64,
                                          false,
                                          DataClass::SharedRO});
                co_yield Op::mem(std::move(refs), true);
            }

            // Assignment phase over the private points.
            double *sums =
                &partial[static_cast<std::size_t>(tid) * k *
                         (dim + 1)];
            for (unsigned z = 0; z < k * (dim + 1); ++z)
                sums[z] = 0;

            std::vector<MemRef> batch;
            std::uint64_t instr = 0;
            for (std::uint64_t i = ps; i < pe; ++i) {
                const unsigned c =
                    nearest(points.data() + i * dim,
                            centroids.data());
                assignment[i] = c;
                sums[c * (dim + 1) + dim] += 1;
                for (unsigned d = 0; d < dim; ++d)
                    sums[c * (dim + 1) + d] +=
                        points[i * dim + d];

                // One point = dim*4 = 32 bytes: half a line.
                batch.push_back(
                    MemRef{pointAddr[tid] + (i - ps) * dim * 4,
                           static_cast<std::uint16_t>(dim * 4),
                           false, DataClass::Private});
                instr += k * dim * 3;
                if (batch.size() >= 32) {
                    co_yield Op::compute(instr);
                    instr = 0;
                    co_yield Op::mem(std::move(batch));
                    batch.clear();
                }
            }
            // Publish partial sums for the reducer.
            for (unsigned off = 0; off < k * (dim + 1) * 8;
                 off += 64)
                batch.push_back(MemRef{sumAddr[tid] + off, 64, true,
                                       DataClass::SharedRW});
            co_yield Op::compute(instr);
            co_yield Op::mem(std::move(batch));
            batch.clear();
            co_yield Op::barrier();

            // Thread 0 gathers all partial sums and rewrites the
            // centroid table.
            if (tid == 0) {
                std::vector<MemRef> gather;
                for (unsigned t = 0; t < p.numThreads; ++t)
                    for (unsigned off = 0; off < k * (dim + 1) * 8;
                         off += 64)
                        gather.push_back(
                            MemRef{sumAddr[t] + off, 64, false,
                                   DataClass::SharedRW});
                co_yield Op::mem(std::move(gather), true);

                std::vector<double> sum(k * dim, 0.0);
                std::vector<double> cnt(k, 0.0);
                for (unsigned t = 0; t < p.numThreads; ++t) {
                    const double *sp =
                        &partial[static_cast<std::size_t>(t) * k *
                                 (dim + 1)];
                    for (unsigned c = 0; c < k; ++c) {
                        cnt[c] += sp[c * (dim + 1) + dim];
                        for (unsigned d = 0; d < dim; ++d)
                            sum[c * dim + d] +=
                                sp[c * (dim + 1) + d];
                    }
                }
                for (unsigned c = 0; c < k; ++c)
                    if (cnt[c] > 0)
                        for (unsigned d = 0; d < dim; ++d)
                            centroids[c * dim + d] =
                                sum[c * dim + d] / cnt[c];

                std::vector<MemRef> wb;
                for (unsigned off = 0; off < k * dim * 4; off += 64)
                    wb.push_back(MemRef{centroidAddr + off, 64, true,
                                        DataClass::SharedRW});
                co_yield Op::compute(
                    static_cast<std::uint64_t>(p.numThreads) * k *
                    dim * 2);
                co_yield Op::mem(std::move(wb), true);
            }
            co_yield Op::barrier();
        }
    }

    std::uint64_t numPoints;
    unsigned iterations;
    std::vector<float> points;
    std::vector<double> centroids;
    std::vector<std::uint32_t> assignment;
    std::vector<double> partial;
    std::vector<Addr> pointAddr;
    std::vector<Addr> sumAddr;
    Addr centroidAddr = 0;
};

} // namespace

std::unique_ptr<Workload>
makeKmeans(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<KmeansWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
