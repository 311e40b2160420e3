/**
 * @file
 * Hotspot: the classic 2D thermal stencil (Table IV). The grid is
 * split into row strips, one per thread; every iteration each thread
 * reads its neighbors' boundary rows — a nearest-neighbor exchange
 * that maps beautifully onto DIMM-Link's adjacent-DIMM links.
 */

#include <cmath>

#include "workloads/op_stream.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class HotspotWorkload : public Workload
{
  public:
    HotspotWorkload(WorkloadParams params_,
                    const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          rows(static_cast<std::uint32_t>(64ull << (p.scale / 2))),
          cols(static_cast<std::uint32_t>(64ull << ((p.scale + 1) / 2))),
          iterations(p.rounds ? std::min(p.rounds, 16u) : 8u)
    {
        // Temperature grids (double buffered) and static power map,
        // placed strip-by-strip with each owner thread.
        tempAddr[0].resize(p.numThreads);
        tempAddr[1].resize(p.numThreads);
        powerAddr.resize(p.numThreads);
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const std::uint64_t strip_bytes =
                static_cast<std::uint64_t>(rEnd(t) - rStart(t)) *
                cols * 4;
            tempAddr[0][t] = alloc.alloc(sliceHome(t), strip_bytes);
            tempAddr[1][t] = alloc.alloc(sliceHome(t), strip_bytes);
            powerAddr[t] = alloc.alloc(sliceHome(t), strip_bytes);
        }

        Rng rng(p.seed);
        power.resize(static_cast<std::size_t>(rows) * cols);
        initTemp.resize(power.size());
        for (auto &v : power)
            v = static_cast<float>(rng.real() * 0.5);
        for (auto &v : initTemp)
            v = static_cast<float>(320.0 + rng.real() * 20.0);
        reset();
    }

    std::string name() const override { return "hotspot"; }

    void
    reset() override
    {
        temp[0] = initTemp;
        temp[1].assign(initTemp.size(), 0.0f);
    }

    bool
    verify() const override
    {
        std::vector<float> a = initTemp;
        std::vector<float> b(a.size(), 0.0f);
        for (unsigned it = 0; it < iterations; ++it) {
            referenceStep(a, b);
            a.swap(b);
        }
        const auto &result = temp[iterations % 2];
        for (std::size_t i = 0; i < a.size(); ++i)
            if (std::abs(a[i] - result[i]) > 1e-3f)
                return false;
        return true;
    }

    std::uint64_t
    approxMemRefs() const override
    {
        // Five line-granular references per 16-cell line.
        return static_cast<std::uint64_t>(rows) * cols * 5 / 16 *
               iterations;
    }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return dimmlink::makeProgram(run(tid));
    }

  private:
    std::uint32_t rStart(ThreadId t) const
    {
        return static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(rows) * t / p.numThreads);
    }
    std::uint32_t rEnd(ThreadId t) const
    {
        return static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(rows) * (t + 1) /
            p.numThreads);
    }

    float
    cell(const std::vector<float> &g, std::uint32_t r,
         std::uint32_t c) const
    {
        return g[static_cast<std::size_t>(r) * cols + c];
    }

    void
    referenceStep(const std::vector<float> &src,
                  std::vector<float> &dst) const
    {
        for (std::uint32_t r = 0; r < rows; ++r) {
            for (std::uint32_t c = 0; c < cols; ++c) {
                const float up = r > 0 ? cell(src, r - 1, c)
                                       : cell(src, r, c);
                const float down = r + 1 < rows
                                       ? cell(src, r + 1, c)
                                       : cell(src, r, c);
                const float left = c > 0 ? cell(src, r, c - 1)
                                         : cell(src, r, c);
                const float right = c + 1 < cols
                                        ? cell(src, r, c + 1)
                                        : cell(src, r, c);
                const float self = cell(src, r, c);
                const float pwr =
                    power[static_cast<std::size_t>(r) * cols + c];
                dst[static_cast<std::size_t>(r) * cols + c] =
                    self + 0.2f * (up + down + left + right -
                                   4.0f * self) + 0.05f * pwr;
            }
        }
    }

    /** Owner thread of grid row @p r. */
    ThreadId
    ownerOf(std::uint32_t r) const
    {
        unsigned lo = 0, hi = p.numThreads - 1;
        while (lo < hi) {
            const unsigned mid = (lo + hi + 1) / 2;
            if (rStart(mid) <= r)
                lo = mid;
            else
                hi = mid - 1;
        }
        return lo;
    }

    /** Address of row @p r in buffer @p buf. */
    Addr
    rowAddr(unsigned buf, std::uint32_t r) const
    {
        const ThreadId t = ownerOf(r);
        return tempAddr[buf][t] +
               static_cast<Addr>(r - rStart(t)) * cols * 4;
    }

    OpStream
    run(ThreadId tid)
    {
        const std::uint32_t rs = rStart(tid);
        const std::uint32_t re = rEnd(tid);
        const std::uint32_t row_lines = cols * 4 / 64;

        for (unsigned it = 0; it < iterations; ++it) {
            const unsigned src = it % 2;
            const unsigned dst = 1 - src;
            const auto &sg = temp[src];
            auto &dg = temp[dst];

            for (std::uint32_t r = rs; r < re; ++r) {
                std::vector<MemRef> batch;
                // Boundary rows owned by neighbor threads are shared
                // read-write (they change every iteration); interior
                // rows are private.
                const bool top_remote = r == rs && r > 0;
                const bool bot_remote = r == re - 1 && r + 1 < rows;
                for (std::uint32_t l = 0; l < row_lines; ++l) {
                    const Addr off = static_cast<Addr>(l) * 64;
                    if (r > 0)
                        batch.push_back(MemRef{
                            rowAddr(src, r - 1) + off, 64, false,
                            top_remote ? DataClass::SharedRO
                                       : DataClass::Private});
                    batch.push_back(MemRef{rowAddr(src, r) + off,
                                           64, false,
                                           DataClass::Private});
                    if (r + 1 < rows)
                        batch.push_back(MemRef{
                            rowAddr(src, r + 1) + off, 64, false,
                            bot_remote ? DataClass::SharedRO
                                       : DataClass::Private});
                    batch.push_back(MemRef{
                        powerAddr[tid] +
                            static_cast<Addr>(r - rs) * cols * 4 +
                            off,
                        64, false, DataClass::Private});
                    batch.push_back(MemRef{rowAddr(dst, r) + off,
                                           64, true,
                                           DataClass::Private});
                    if (batch.size() >= 32) {
                        co_yield Op::compute(16 * 10);
                        co_yield Op::mem(std::move(batch));
                        batch.clear();
                    }
                }
                // Functional row update.
                for (std::uint32_t c = 0; c < cols; ++c) {
                    const float up = r > 0 ? cell(sg, r - 1, c)
                                           : cell(sg, r, c);
                    const float down = r + 1 < rows
                                           ? cell(sg, r + 1, c)
                                           : cell(sg, r, c);
                    const float left = c > 0 ? cell(sg, r, c - 1)
                                             : cell(sg, r, c);
                    const float right = c + 1 < cols
                                            ? cell(sg, r, c + 1)
                                            : cell(sg, r, c);
                    const float self = cell(sg, r, c);
                    const float pwr =
                        power[static_cast<std::size_t>(r) * cols +
                              c];
                    dg[static_cast<std::size_t>(r) * cols + c] =
                        self + 0.2f * (up + down + left + right -
                                       4.0f * self) + 0.05f * pwr;
                }
                if (!batch.empty()) {
                    co_yield Op::compute(16 * 10);
                    co_yield Op::mem(std::move(batch));
                }
            }
            co_yield Op::barrier();
        }
    }

    std::uint32_t rows;
    std::uint32_t cols;
    unsigned iterations;
    std::vector<float> power;
    std::vector<float> initTemp;
    std::vector<float> temp[2];
    std::vector<Addr> tempAddr[2];
    std::vector<Addr> powerAddr;
};

} // namespace

std::unique_ptr<Workload>
makeHotspot(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<HotspotWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
