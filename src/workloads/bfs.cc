/**
 * @file
 * Level-synchronous parallel BFS (Table IV). Threads own contiguous
 * vertex slices; relaxing a neighbor that lives in another slice
 * touches that slice's home DIMM, producing the scattered inter-DIMM
 * traffic BFS is known for (and why the paper calls it
 * broadcast-unfriendly).
 */

#include <limits>

#include "workloads/graph.hh"
#include "workloads/graph_layout.hh"
#include "workloads/op_stream.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

constexpr std::uint32_t inf = std::numeric_limits<std::uint32_t>::max();

class BfsWorkload : public Workload
{
  public:
    BfsWorkload(WorkloadParams params_,
                const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          graph(Graph::rmat(static_cast<unsigned>(p.scale), 8,
                            p.seed)),
          slices(graph, p, alloc, /*prop_arrays=*/1),
          source(0)
    {
        // Shared level-termination flags (double-buffered), homed on
        // DIMM 0 like any global.
        flagAddr[0] = alloc.alloc(0, 64);
        flagAddr[1] = alloc.alloc(0, 64);
        reset();
    }

    std::string name() const override { return "bfs"; }

    void
    reset() override
    {
        dist.assign(graph.numVertices(), inf);
        dist[source] = 0;
        frontierNonEmpty[0] = true; // level 0 has the source.
        frontierNonEmpty[1] = false;
    }

    bool
    verify() const override
    {
        return dist == graph.bfsReference(source);
    }

    std::uint64_t
    approxInstructions() const override
    {
        return graph.numEdges() * 4 + graph.numVertices() * 8;
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

        for (std::uint32_t level = 0;; ++level) {
            const unsigned parity = level & 1;
            if (!frontierNonEmpty[parity]) {
                // Simulated check of the shared flag.
                co_yield Op::read(flagAddr[parity], 4,
                                  DataClass::SharedRW);
                break;
            }
            co_yield Op::read(flagAddr[parity], 4,
                              DataClass::SharedRW);

            std::vector<MemRef> batch;
            std::uint64_t instr = 0;
            bool relaxed_any = false;

            for (std::uint32_t v = vs; v < ve; ++v) {
                // Scan the slice's dist values (local; the NMP
                // runtime streams its own slice line-granularly,
                // UPMEM-DMA style).
                if ((v - vs) % 16 == 0)
                    batch.push_back(MemRef{slices.propAddr(0, v),
                                           64, false,
                                           DataClass::SharedRW});
                instr += 1;
                if (dist[v] == level) {
                    // Stream this vertex's edge list (local).
                    const std::uint64_t eb = graph.edgeBegin(v);
                    const std::uint64_t ee = graph.edgeEnd(v);
                    for (std::uint64_t e = eb; e < ee; e += 8) {
                        batch.push_back(
                            MemRef{slices.edgeAddr(tid, e), 64,
                                   false, DataClass::Private});
                    }
                    for (std::uint64_t e = eb; e < ee; ++e) {
                        const std::uint32_t u = graph.neighbor(e);
                        instr += 2;
                        batch.push_back(
                            MemRef{slices.propAddr(0, u), 4, false,
                                   DataClass::SharedRW});
                        if (dist[u] == inf) {
                            dist[u] = level + 1;
                            relaxed_any = true;
                            batch.push_back(
                                MemRef{slices.propAddr(0, u), 4,
                                       true, DataClass::SharedRW});
                        }
                        if (batch.size() >= 32) {
                            co_yield Op::compute(instr);
                            instr = 0;
                            co_yield Op::mem(std::move(batch));
                            batch.clear();
                        }
                    }
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

            if (relaxed_any) {
                frontierNonEmpty[1 - parity] = true;
                co_yield Op::write(flagAddr[1 - parity], 4,
                                   DataClass::SharedRW);
            }
            co_yield Op::barrier();
            if (tid == 0) {
                // Reset this level's flag for its next reuse.
                frontierNonEmpty[parity] = false;
                co_yield Op::write(flagAddr[parity], 4,
                                   DataClass::SharedRW);
            }
            co_yield Op::barrier();
        }
    }

    Graph graph;
    GraphSlices slices;
    std::uint32_t source;
    std::vector<std::uint32_t> dist;
    bool frontierNonEmpty[2] = {false, false};
    Addr flagAddr[2] = {0, 0};
};

} // namespace

std::unique_ptr<Workload>
makeBfs(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<BfsWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
