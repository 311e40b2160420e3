/**
 * @file
 * Sparse matrix-vector multiplication, run as a power-iteration style
 * sequence of y = A x passes (Fig. 12's broadcast workload). Within a
 * pass the dense vector x is read-only: the baseline reaches across
 * DIMMs for foreign x elements, the broadcast variant distributes x
 * to every DIMM first and reads locally.
 */

#include <cmath>

#include "workloads/graph.hh"
#include "workloads/graph_layout.hh"
#include "workloads/op_stream.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class SpmvWorkload : public Workload
{
  public:
    SpmvWorkload(WorkloadParams params_,
                 const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          graph(Graph::rmat(static_cast<unsigned>(p.scale), 8,
                            p.seed)),
          // Arrays: 0 = x, 1 = y.
          slices(graph, p, alloc, /*prop_arrays=*/2, /*bytes=*/8),
          passes(p.rounds ? std::min(p.rounds, 6u) : 4u)
    {
        slices.allocCopies(alloc);
        reset();
    }

    std::string name() const override { return "spmv"; }

    void
    reset() override
    {
        x.assign(graph.numVertices(), 1.0);
        y.assign(graph.numVertices(), 0.0);
    }

    bool
    verify() const override
    {
        // Recompute the reference passes sequentially.
        std::vector<double> rx(graph.numVertices(), 1.0);
        std::vector<double> ry(graph.numVertices(), 0.0);
        for (unsigned pass = 0; pass < passes; ++pass) {
            for (std::uint32_t v = 0; v < graph.numVertices(); ++v) {
                double sum = 0;
                for (std::uint64_t e = graph.edgeBegin(v);
                     e < graph.edgeEnd(v); ++e)
                    sum += graph.weight(e) * rx[graph.neighbor(e)];
                ry[v] = sum;
            }
            for (std::uint32_t v = 0; v < graph.numVertices(); ++v)
                rx[v] = ry[v] / 64.0;
        }
        for (std::uint32_t v = 0; v < graph.numVertices(); ++v)
            if (std::abs(rx[v] - x[v]) > 1e-6 * std::abs(rx[v]))
                return false;
        return true;
    }

    std::uint64_t
    approxInstructions() const override
    {
        return graph.numEdges() * 3 * passes;
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

        for (unsigned pass = 0; pass < passes; ++pass) {
            if (p.broadcastMode) {
                if (slices.dimmLeader(tid))
                    co_yield Op::broadcast(slices.propAddr(0, vs),
                                           slices.dimmBytes(home));
                co_yield Op::barrier();
            }

            std::vector<MemRef> batch;
            std::uint64_t instr = 0;
            for (std::uint32_t v = vs; v < ve; ++v) {
                double sum = 0;
                const std::uint64_t eb = graph.edgeBegin(v);
                const std::uint64_t ee = graph.edgeEnd(v);
                for (std::uint64_t e = eb; e < ee; e += 8)
                    batch.push_back(MemRef{slices.edgeAddr(tid, e),
                                           64, false,
                                           DataClass::Private});
                for (std::uint64_t e = eb; e < ee; ++e) {
                    const std::uint32_t u = graph.neighbor(e);
                    sum += graph.weight(e) * x[u];
                    instr += 2;
                    // x is read-only within the pass: SharedRO
                    // (cacheable) but scattered across DIMMs.
                    batch.push_back(slices.neighborRead(
                        0, u, home, DataClass::SharedRO));
                    if (batch.size() >= 32) {
                        co_yield Op::compute(instr);
                        instr = 0;
                        co_yield Op::mem(std::move(batch));
                        batch.clear();
                    }
                }
                y[v] = sum;
                if ((v - vs) % 8 == 0)
                    batch.push_back(MemRef{slices.propAddr(1, v),
                                           64, true,
                                           DataClass::Private});
            }
            if (!batch.empty()) {
                co_yield Op::compute(instr);
                co_yield Op::mem(std::move(batch));
                batch.clear();
            }
            co_yield Op::barrier();

            // Owners scale x <- y / 64 (keeps values bounded).
            {
                std::vector<MemRef> wb;
                for (std::uint32_t v = vs; v < ve; ++v) {
                    x[v] = y[v] / 64.0;
                    if ((v - vs) % 8 == 0)
                        wb.push_back(
                            MemRef{slices.propAddr(0, v), 64, true,
                                   DataClass::SharedRW});
                    if (wb.size() >= 32) {
                        co_yield Op::mem(std::move(wb));
                        wb.clear();
                    }
                }
                if (!wb.empty())
                    co_yield Op::mem(std::move(wb));
            }
            co_yield Op::barrier();
        }
    }

    Graph graph;
    GraphSlices slices;
    unsigned passes;
    std::vector<double> x;
    std::vector<double> y;
};

} // namespace

std::unique_ptr<Workload>
makeSpmv(const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
{
    return std::make_unique<SpmvWorkload>(params, gmap);
}

} // namespace workloads
} // namespace dimmlink
