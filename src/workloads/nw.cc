/**
 * @file
 * Needleman-Wunsch global sequence alignment (Table IV). The DP
 * matrix is split into row strips (one per thread) and processed in
 * column blocks along anti-diagonal wavefronts: before computing
 * block (t, j), thread t reads the bottom boundary row of block
 * (t-1, j) from its neighbor's DIMM — a pipeline-shaped dependence
 * pattern whose forwarding cost dominates on CPU-forwarding fabrics.
 */

#include <algorithm>

#include "workloads/op_stream.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class NwWorkload : public Workload
{
  public:
    static constexpr int matchScore = 2;
    static constexpr int mismatchScore = -1;
    static constexpr int gapPenalty = -2;

    NwWorkload(WorkloadParams params_,
               const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          len(static_cast<std::uint32_t>(256ull << (p.scale / 2))),
          blockCols(64)
    {
        Rng rng(p.seed);
        seqA.resize(len);
        seqB.resize(len);
        for (auto &ch : seqA)
            ch = static_cast<char>('A' + rng.below(4));
        for (auto &ch : seqB)
            ch = static_cast<char>('A' + rng.below(4));

        // Strip r-ranges over the (len+1) x (len+1) DP matrix rows
        // 1..len; row 0 is the constant gap row.
        stripAddr.resize(p.numThreads);
        boundaryAddr.resize(p.numThreads);
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const std::uint64_t strip_rows = rEnd(t) - rStart(t);
            stripAddr[t] = alloc.alloc(
                sliceHome(t),
                strip_rows * (static_cast<std::uint64_t>(len) + 1) *
                    4);
            // The strip's bottom row, published for the next thread.
            boundaryAddr[t] = alloc.alloc(
                sliceHome(t),
                (static_cast<std::uint64_t>(len) + 1) * 4);
        }
        reset();
    }

    std::string name() const override { return "nw"; }

    void
    reset() override
    {
        score.assign(
            (static_cast<std::size_t>(len) + 1) * (len + 1), 0);
        for (std::uint32_t i = 0; i <= len; ++i) {
            at(i, 0) = static_cast<int>(i) * gapPenalty;
            at(0, i) = static_cast<int>(i) * gapPenalty;
        }
    }

    bool
    verify() const override
    {
        std::vector<int> ref(
            (static_cast<std::size_t>(len) + 1) * (len + 1), 0);
        auto rat = [&](std::uint32_t r, std::uint32_t c) -> int & {
            return ref[static_cast<std::size_t>(r) * (len + 1) + c];
        };
        for (std::uint32_t i = 0; i <= len; ++i) {
            rat(i, 0) = static_cast<int>(i) * gapPenalty;
            rat(0, i) = static_cast<int>(i) * gapPenalty;
        }
        for (std::uint32_t r = 1; r <= len; ++r)
            for (std::uint32_t c = 1; c <= len; ++c)
                rat(r, c) = cellScore(rat(r - 1, c - 1),
                                      rat(r - 1, c), rat(r, c - 1),
                                      r, c);
        return ref == score;
    }

    std::uint64_t
    approxMemRefs() const override
    {
        return static_cast<std::uint64_t>(len) * len / 8;
    }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return dimmlink::makeProgram(run(tid));
    }

  private:
    std::uint32_t rStart(ThreadId t) const
    {
        return 1 + static_cast<std::uint32_t>(
                       static_cast<std::uint64_t>(len) * t /
                       p.numThreads);
    }
    std::uint32_t rEnd(ThreadId t) const
    {
        return 1 + static_cast<std::uint32_t>(
                       static_cast<std::uint64_t>(len) * (t + 1) /
                       p.numThreads);
    }

    int &
    at(std::uint32_t r, std::uint32_t c)
    {
        return score[static_cast<std::size_t>(r) * (len + 1) + c];
    }
    int
    at(std::uint32_t r, std::uint32_t c) const
    {
        return score[static_cast<std::size_t>(r) * (len + 1) + c];
    }

    int
    cellScore(int diag, int up, int left, std::uint32_t r,
              std::uint32_t c) const
    {
        const int match = seqA[r - 1] == seqB[c - 1] ? matchScore
                                                     : mismatchScore;
        return std::max({diag + match, up + gapPenalty,
                         left + gapPenalty});
    }

    OpStream
    run(ThreadId tid)
    {
        const std::uint32_t rs = rStart(tid);
        const std::uint32_t re = rEnd(tid);
        const std::uint32_t num_blocks =
            (len + blockCols - 1) / blockCols;
        const unsigned t_cnt = p.numThreads;

        // Wavefront steps: thread t computes block j at step t + j.
        for (std::uint32_t step = 0;
             step < t_cnt + num_blocks - 1; ++step) {
            if (step >= tid && step - tid < num_blocks) {
                const std::uint32_t j = step - tid;
                const std::uint32_t cs = 1 + j * blockCols;
                const std::uint32_t ce =
                    std::min(len + 1, cs + blockCols);

                std::vector<MemRef> batch;
                // Read the upper boundary row segment published by
                // thread tid-1 (remote when strips straddle DIMMs).
                if (tid > 0) {
                    // The neighbor's boundary row was published a
                    // wavefront step earlier; read-only here.
                    for (std::uint32_t c = cs - 1; c < ce;
                         c += 16)
                        batch.push_back(MemRef{
                            boundaryAddr[tid - 1] +
                                static_cast<Addr>(c) * 4,
                            64, false, DataClass::SharedRO});
                }
                co_yield Op::mem(std::move(batch), true);
                batch.clear();

                // Compute the block, streaming strip rows locally.
                std::uint64_t instr = 0;
                for (std::uint32_t r = rs; r < re; ++r) {
                    for (std::uint32_t c = cs; c < ce; ++c) {
                        at(r, c) = cellScore(at(r - 1, c - 1),
                                             at(r - 1, c),
                                             at(r, c - 1), r, c);
                        instr += 8;
                    }
                    for (std::uint32_t c = cs; c < ce; c += 16) {
                        batch.push_back(MemRef{
                            stripAddr[tid] +
                                (static_cast<Addr>(r - rs) *
                                     (len + 1) +
                                 c) * 4,
                            64, true, DataClass::Private});
                        batch.push_back(MemRef{
                            stripAddr[tid] +
                                (static_cast<Addr>(r - rs) *
                                     (len + 1) +
                                 c) * 4,
                            64, false, DataClass::Private});
                    }
                    if (batch.size() >= 32) {
                        co_yield Op::compute(instr);
                        instr = 0;
                        co_yield Op::mem(std::move(batch));
                        batch.clear();
                    }
                }
                // Publish the bottom row segment of this block.
                for (std::uint32_t c = cs; c < ce; c += 16)
                    batch.push_back(MemRef{
                        boundaryAddr[tid] + static_cast<Addr>(c) * 4,
                        64, true, DataClass::SharedRW});
                co_yield Op::compute(instr);
                co_yield Op::mem(std::move(batch), true);
            }
            co_yield Op::barrier();
        }
    }

    std::uint32_t len;
    std::uint32_t blockCols;
    std::vector<char> seqA;
    std::vector<char> seqB;
    std::vector<int> score;
    std::vector<Addr> stripAddr;
    std::vector<Addr> boundaryAddr;
};

} // namespace

std::unique_ptr<Workload>
makeNw(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<NwWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
