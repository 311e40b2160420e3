/**
 * @file
 * Topology construction and static routing for one DL group.
 *
 * The paper's practical prototype connects adjacent DIMMs in a chain
 * ("Half-Ring"); Section VI explores Ring, Mesh, and Torus layouts of
 * the same DIMMs. TopologyGraph::build (noc/topologies.cc) lays out
 * each one as a chain, a ring or a two-row grid; routing is
 * deterministic shortest-path (BFS with lowest-index tie-breaking)
 * unless the layout installs its own route function (the grids use
 * row-first XY routing). Broadcast follows a per-source spanning tree
 * built from the unicast paths so each link carries the packet at most
 * once.
 */

#ifndef DIMMLINK_NOC_TOPOLOGY_HH
#define DIMMLINK_NOC_TOPOLOGY_HH

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/config.hh"

namespace dimmlink {
namespace noc {

/** The static structure of one group's network. */
class TopologyGraph
{
  public:
    /** Build the link set for @p nodes DIMMs under topology @p kind. */
    TopologyGraph(Topology kind, unsigned nodes);

    unsigned numNodes() const { return n; }
    Topology kind() const { return kind_; }

    /** distance() result for node pairs with no live path. */
    static constexpr unsigned unreachable = 0xffffffffu;

    /** Undirected adjacency: neighbors of @p node, sorted. */
    const std::vector<int> &neighbors(int node) const
    {
        return adj[static_cast<std::size_t>(node)];
    }

    /** Next hop from @p node toward @p dst (== dst when adjacent);
     * -1 when @p dst is unreachable over the live links. */
    int nextHop(int node, int dst) const
    {
        return nextHop_[static_cast<std::size_t>(node)]
                       [static_cast<std::size_t>(dst)];
    }

    /** Shortest-path hop distance between two nodes over the live
     * links; @ref unreachable when no path survives. */
    unsigned distance(int a, int b) const
    {
        return dist[static_cast<std::size_t>(a)]
                   [static_cast<std::size_t>(b)];
    }

    /** True when a live route from @p a to @p b exists. */
    bool reachable(int a, int b) const
    {
        return distance(a, b) != unreachable;
    }

    /** Children of @p node in the broadcast tree rooted at @p src. */
    const std::vector<int> &broadcastChildren(int src, int node) const
    {
        return bcastTree[static_cast<std::size_t>(src)]
                        [static_cast<std::size_t>(node)];
    }

    /** Maximum shortest-path distance over all node pairs. */
    unsigned diameter() const;

    /** Total number of unidirectional links (2x undirected edges). */
    unsigned numDirectedLinks() const;

    /**
     * True when the routed channel-dependency structure contains
     * rings (Ring, and Torus rows): routers then apply bubble flow
     * control to injected messages to stay deadlock-free.
     */
    bool cyclic() const { return cyclic_; }

    // -- Dynamic link-failure masking (route-around) -------------------

    /**
     * Mark the directed link @p a -> @p b down (or back up) and
     * recompute every routing table and broadcast tree over the
     * surviving links. While any link is masked, routing falls back
     * to BFS over the live directed adjacency (a builder-installed
     * route function such as the grids' XY walk cannot avoid dead
     * links); node pairs with no surviving path get distance()
     * == unreachable and nextHop() == -1 instead of a fatal().
     */
    void setEdgeDown(int a, int b, bool down);

    /** True when the directed link @p a -> @p b is masked down. */
    bool edgeDown(int a, int b) const
    {
        return downEdges_.count({a, b}) != 0;
    }

    /** Number of directed links currently masked down. */
    std::size_t numDownEdges() const { return downEdges_.size(); }

  private:
    /** Add @p kind's edges, cyclic mark and route function
     * (noc/topologies.cc). */
    void build(Topology kind);
    void buildChain();
    void buildRing();
    /** The 2 x (n/2) Mesh, or with row wrap-around the Torus. */
    void buildGrid(bool torus);

    /** Add an undirected link (idempotent). */
    void addEdge(int a, int b);

    void computeRouting();

    Topology kind_;
    unsigned n;
    bool cyclic_ = false;
    /** Deterministic next-hop function (node, dst) -> next node;
     * when set, routes follow it instead of BFS. It must converge to
     * dst within numNodes() hops along every pair. */
    std::function<int(int, int)> routeFn;
    std::vector<std::vector<int>> adj;
    /** Directed links masked down by the health layer. */
    std::set<std::pair<int, int>> downEdges_;
    std::vector<std::vector<int>> nextHop_;
    std::vector<std::vector<unsigned>> dist;
    /** bcastTree[src][node] = children to forward to. */
    std::vector<std::vector<std::vector<int>>> bcastTree;
};

} // namespace noc
} // namespace dimmlink

#endif // DIMMLINK_NOC_TOPOLOGY_HH
