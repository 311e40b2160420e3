/**
 * @file
 * A CSR graph container with a deterministic R-MAT generator. The
 * paper evaluates PR/SSSP on the LiveJournal graph; we substitute a
 * scaled-down R-MAT instance with LiveJournal-like skew
 * (a=0.57, b=0.19, c=0.19, d=0.05) so the remote-access imbalance the
 * evaluation depends on is preserved (see DESIGN.md, substitutions).
 */

#ifndef DIMMLINK_WORKLOADS_GRAPH_HH
#define DIMMLINK_WORKLOADS_GRAPH_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace dimmlink {
namespace workloads {

class Graph
{
  public:
    /** Build an R-MAT graph with 2^scale vertices and roughly
     * edge_factor x 2^scale undirected edges. */
    static Graph rmat(unsigned scale, unsigned edge_factor,
                      std::uint64_t seed);

    /** Build a uniform random graph (Erdos-Renyi style). */
    static Graph uniform(std::uint32_t vertices,
                         std::uint64_t edges, std::uint64_t seed);

    /** 2D grid graph (stencil-like connectivity, for tests). */
    static Graph grid2d(std::uint32_t rows, std::uint32_t cols);

    std::uint32_t numVertices() const
    {
        return static_cast<std::uint32_t>(rowPtr.size() - 1);
    }
    std::uint64_t numEdges() const { return colIdx.size(); }

    /** Out-degree of @p v. */
    std::uint32_t
    degree(std::uint32_t v) const
    {
        return static_cast<std::uint32_t>(rowPtr[v + 1] - rowPtr[v]);
    }

    /** Neighbors of @p v: [begin, end) indices into colIdx/weights. */
    std::uint64_t edgeBegin(std::uint32_t v) const { return rowPtr[v]; }
    std::uint64_t edgeEnd(std::uint32_t v) const
    {
        return rowPtr[v + 1];
    }
    std::uint32_t neighbor(std::uint64_t e) const { return colIdx[e]; }
    std::uint32_t weight(std::uint64_t e) const { return weights[e]; }

    /** Reference sequential algorithms (result verification). */
    std::vector<std::uint32_t> bfsReference(std::uint32_t source) const;
    std::vector<std::uint64_t> ssspReference(std::uint32_t source)
        const;
    std::vector<double> pagerankReference(unsigned iterations,
                                          double damping) const;

  private:
    /**
     * Finalize from an edge list holding one undirected edge per pair.
     * Builds the symmetric CSR in linear passes: a counting sort of
     * both directions by source, a second scatter that sorts every
     * row (the graph is its own transpose), then one pass that drops
     * duplicate edges and self loops. Weights are drawn last from
     * @p rng, one per CSR slot in CSR order: the generator's edge
     * draws followed by these weight draws are the graph's identity.
     */
    static Graph fromEdges(
        std::uint32_t vertices,
        std::vector<std::pair<std::uint32_t, std::uint32_t>> edges,
        Rng &rng);

    std::vector<std::uint64_t> rowPtr;
    std::vector<std::uint32_t> colIdx;
    std::vector<std::uint32_t> weights;
};

} // namespace workloads
} // namespace dimmlink

#endif // DIMMLINK_WORKLOADS_GRAPH_HH
