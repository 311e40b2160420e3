/**
 * @file
 * Single-Source Shortest Path via round-synchronous Bellman-Ford
 * (Table IV; Fig. 10 and Fig. 12). Each round, threads relax the
 * outgoing edges of vertices whose distance changed in the previous
 * round. Distance reads/writes of foreign vertices cross DIMMs; the
 * broadcast variant publishes each DIMM's updated distance block once
 * per round instead.
 */

#include <limits>

#include "workloads/graph.hh"
#include "workloads/graph_layout.hh"
#include "workloads/op_stream.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

constexpr std::uint64_t inf64 =
    std::numeric_limits<std::uint64_t>::max();

class SsspWorkload : public Workload
{
  public:
    SsspWorkload(WorkloadParams params_,
                 const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          graph(Graph::rmat(static_cast<unsigned>(p.scale), 8,
                            p.seed)),
          // Arrays: 0 = dist (8B), 1 = changed flag (4B rounded).
          slices(graph, p, alloc, /*prop_arrays=*/2, /*bytes=*/8),
          source(0)
    {
        flagAddr[0] = alloc.alloc(0, 64);
        flagAddr[1] = alloc.alloc(0, 64);
        slices.allocCopies(alloc);
        reset();
    }

    std::string name() const override { return "sssp"; }

    void
    reset() override
    {
        dist.assign(graph.numVertices(), inf64);
        changed.assign(graph.numVertices(), 0);
        dist[source] = 0;
        changed[source] = 1;
        anyChanged[0] = true;
        anyChanged[1] = false;
    }

    bool
    verify() const override
    {
        return dist == graph.ssspReference(source);
    }

    std::uint64_t
    approxInstructions() const override
    {
        return graph.numEdges() * 12 + graph.numVertices() * 8;
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
        const DimmId home = sliceHome(tid);
        // Bellman-Ford needs at most V-1 rounds; skewed R-MAT
        // instances converge in a few dozen.
        const unsigned max_rounds = graph.numVertices();

        for (unsigned round = 0; round < max_rounds; ++round) {
            const unsigned parity = round & 1;
            co_yield Op::read(flagAddr[parity], 4,
                              DataClass::SharedRW);
            if (!anyChanged[parity])
                break;

            if (p.broadcastMode) {
                // Publish this DIMM's distance block to all DIMMs.
                if (slices.dimmLeader(tid))
                    co_yield Op::broadcast(slices.propAddr(0, vs),
                                           slices.dimmBytes(home));
                co_yield Op::barrier();
            }

            std::vector<MemRef> batch;
            std::uint64_t instr = 0;
            bool relaxed_any = false;

            for (std::uint32_t v = vs; v < ve; ++v) {
                // Stream the own slice's changed flags (8 per line).
                if ((v - vs) % 8 == 0)
                    batch.push_back(MemRef{slices.propAddr(1, v),
                                           64, false,
                                           DataClass::Private});
                instr += 1;
                if (!changedPrev(v, round))
                    continue;
                const std::uint64_t dv = dist[v];
                const std::uint64_t eb = graph.edgeBegin(v);
                const std::uint64_t ee = graph.edgeEnd(v);
                for (std::uint64_t e = eb; e < ee; e += 8)
                    batch.push_back(MemRef{slices.edgeAddr(tid, e),
                                           64, false,
                                           DataClass::Private});
                for (std::uint64_t e = eb; e < ee; ++e) {
                    const std::uint32_t u = graph.neighbor(e);
                    const std::uint64_t nd = dv + graph.weight(e);
                    instr += 3;
                    batch.push_back(slices.neighborRead(
                        0, u, home, DataClass::SharedRW));
                    if (nd < dist[u]) {
                        dist[u] = nd;
                        markChanged(u, round);
                        relaxed_any = true;
                        batch.push_back(
                            MemRef{slices.propAddr(0, u), 8, true,
                                   DataClass::SharedRW});
                        batch.push_back(
                            MemRef{slices.propAddr(1, u), 8, true,
                                   DataClass::SharedRW});
                    }
                    if (batch.size() >= 32) {
                        co_yield Op::compute(instr);
                        instr = 0;
                        co_yield Op::mem(std::move(batch));
                        batch.clear();
                    }
                }
            }
            if (!batch.empty()) {
                co_yield Op::compute(instr);
                co_yield Op::mem(std::move(batch));
                batch.clear();
            }

            if (relaxed_any) {
                anyChanged[1 - parity] = true;
                co_yield Op::write(flagAddr[1 - parity], 4,
                                   DataClass::SharedRW);
            }
            co_yield Op::barrier();
            if (tid == 0) {
                anyChanged[parity] = false;
                co_yield Op::write(flagAddr[parity], 4,
                                   DataClass::SharedRW);
            }
            co_yield Op::barrier();
        }
    }

    /** changed-flags are generation-stamped to avoid re-clearing. */
    bool
    changedPrev(std::uint32_t v, unsigned round) const
    {
        return changed[v] == round + 1 || (round == 0 && v == source);
    }

    void
    markChanged(std::uint32_t v, unsigned round)
    {
        changed[v] = round + 2; // active in the next round.
    }

    Graph graph;
    GraphSlices slices;
    std::uint32_t source;
    std::vector<std::uint64_t> dist;
    std::vector<std::uint32_t> changed; ///< generation stamp.
    bool anyChanged[2] = {false, false};
    Addr flagAddr[2] = {0, 0};
};

} // namespace

std::unique_ptr<Workload>
makeSssp(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<SsspWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
