/**
 * @file
 * PageRank (Table IV; Fig. 10 and Fig. 12). Two phases per iteration:
 * owners publish contrib[v] = damping * rank[v] / deg[v], then every
 * thread pulls the contributions of its vertices' in-neighbors. In
 * broadcast mode each DIMM broadcasts its slice's contributions once
 * per iteration (the ABC-DIMM-style pattern) and the pull phase reads
 * a local copy instead of reaching across DIMMs.
 */

#include <cmath>

#include "workloads/graph.hh"
#include "workloads/graph_layout.hh"
#include "workloads/op_stream.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class PagerankWorkload : public Workload
{
  public:
    static constexpr double damping = 0.85;

    PagerankWorkload(WorkloadParams params_,
                     const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          graph(Graph::rmat(static_cast<unsigned>(p.scale), 8,
                            p.seed)),
          // Arrays: 0 = rank, 1 = contrib, 2 = next rank.
          slices(graph, p, alloc, /*prop_arrays=*/3, /*bytes=*/8),
          iterations(p.rounds ? std::min(p.rounds, 8u) : 5u)
    {
        // Broadcast mode: a per-DIMM local copy of the full contrib
        // vector, refreshed by the explicit broadcasts.
        slices.allocCopies(alloc);
        reset();
    }

    std::string name() const override { return "pagerank"; }

    void
    reset() override
    {
        const std::uint32_t n = graph.numVertices();
        rank.assign(n, 1.0 / n);
        contrib.assign(n, 0.0);
        next.assign(n, 0.0);
    }

    bool
    verify() const override
    {
        const auto ref = graph.pagerankReference(iterations, damping);
        for (std::uint32_t v = 0; v < graph.numVertices(); ++v)
            if (std::abs(ref[v] - rank[v]) > 1e-9)
                return false;
        return true;
    }

    std::uint64_t
    approxMemRefs() const override
    {
        return (graph.numEdges() + graph.numVertices() * 3) *
               iterations;
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
        const std::uint32_t vs = slices.vStart(tid);
        const std::uint32_t ve = slices.vEnd(tid);
        const std::uint32_t n = graph.numVertices();
        const DimmId home = sliceHome(tid);

        for (unsigned it = 0; it < iterations; ++it) {
            // Phase 1: publish contributions (all local traffic).
            {
                std::vector<MemRef> batch;
                std::uint64_t instr = 0;
                for (std::uint32_t v = vs; v < ve; ++v) {
                    const std::uint32_t deg = graph.degree(v);
                    contrib[v] =
                        deg ? damping * rank[v] / deg : 0.0;
                    // Own-slice streams are line-granular (8
                    // elements per 64-byte line).
                    if ((v - vs) % 8 == 0) {
                        batch.push_back(
                            MemRef{slices.propAddr(0, v), 64,
                                   false, DataClass::Private});
                        batch.push_back(
                            MemRef{slices.propAddr(1, v), 64,
                                   true, DataClass::SharedRW});
                    }
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
                    co_yield Op::mem(std::move(batch));
                }
            }
            co_yield Op::barrier();

            // Broadcast mode: each DIMM's leader thread broadcasts
            // the DIMM's freshly published contrib block.
            if (p.broadcastMode) {
                if (slices.dimmLeader(tid)) {
                    // The DIMM's contrib block spans this DIMM's
                    // slices; broadcast it in one explicit call.
                    co_yield Op::broadcast(slices.propAddr(1, vs),
                                           slices.dimmBytes(home));
                }
                co_yield Op::barrier();
            }

            // Phase 2: pull neighbor contributions.
            {
                std::vector<MemRef> batch;
                std::uint64_t instr = 0;
                for (std::uint32_t v = vs; v < ve; ++v) {
                    double sum = (1.0 - damping) / n;
                    const std::uint64_t eb = graph.edgeBegin(v);
                    const std::uint64_t ee = graph.edgeEnd(v);
                    for (std::uint64_t e = eb; e < ee; e += 8)
                        batch.push_back(
                            MemRef{slices.edgeAddr(tid, e), 64,
                                   false, DataClass::Private});
                    for (std::uint64_t e = eb; e < ee; ++e) {
                        const std::uint32_t u = graph.neighbor(e);
                        sum += contrib[u];
                        instr += 2;
                        // contrib is read-only during the pull phase:
                        // shared-RO (cacheable until the next
                        // barrier's invalidation).
                        batch.push_back(slices.neighborRead(
                            1, u, home, DataClass::SharedRO));
                        if (batch.size() >= 32) {
                            co_yield Op::compute(instr);
                            instr = 0;
                            co_yield Op::mem(std::move(batch));
                            batch.clear();
                        }
                    }
                    next[v] = sum;
                    if ((v - vs) % 8 == 0)
                        batch.push_back(
                            MemRef{slices.propAddr(2, v), 64, true,
                                   DataClass::Private});
                }
                if (!batch.empty()) {
                    co_yield Op::compute(instr);
                    co_yield Op::mem(std::move(batch));
                }
            }
            co_yield Op::barrier();

            // Swap rank <- next for the owned slice; thread 0 swaps
            // the functional arrays after everyone is done.
            for (std::uint32_t v = vs; v < ve; ++v)
                rank[v] = next[v];
            co_yield Op::barrier();
        }
    }

    Graph graph;
    GraphSlices slices;
    unsigned iterations;
    std::vector<double> rank;
    std::vector<double> contrib;
    std::vector<double> next;
};

} // namespace

std::unique_ptr<Workload>
makePagerank(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<PagerankWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
