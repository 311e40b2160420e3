#include "noc/topology.hh"

#include <algorithm>
#include <queue>

#include "common/log.hh"

namespace dimmlink {
namespace noc {

TopologyGraph::TopologyGraph(Topology kind, unsigned nodes)
    : kind_(kind), n(nodes), adj(nodes)
{
    if (nodes == 0)
        fatal("topology needs at least one node");

    build(kind);

    for (auto &list : adj)
        std::sort(list.begin(), list.end());

    computeRouting();
}

void
TopologyGraph::addEdge(int a, int b)
{
    auto &la = adj[static_cast<std::size_t>(a)];
    auto &lb = adj[static_cast<std::size_t>(b)];
    if (std::find(la.begin(), la.end(), b) != la.end())
        return;
    la.push_back(b);
    lb.push_back(a);
}

void
TopologyGraph::setEdgeDown(int a, int b, bool down)
{
    if (down)
        downEdges_.insert({a, b});
    else
        downEdges_.erase({a, b});
    computeRouting();
}

void
TopologyGraph::computeRouting()
{
    const unsigned big = unreachable;
    dist.assign(n, std::vector<unsigned>(n, big));
    nextHop_.assign(n, std::vector<int>(n, -1));
    bcastTree.assign(n, std::vector<std::vector<int>>(n));

    if (routeFn && downEdges_.empty()) {
        // Deterministic builder-provided routing (the grids' XY walk).
        for (unsigned s = 0; s < n; ++s) {
            dist[s][s] = 0;
            for (unsigned d = 0; d < n; ++d) {
                if (s == d)
                    continue;
                // Walk the route to fill nextHop and distance.
                int cur = static_cast<int>(s);
                unsigned hops = 0;
                int first = -1;
                while (cur != static_cast<int>(d)) {
                    const int nxt = routeFn(cur, static_cast<int>(d));
                    if (first == -1)
                        first = nxt;
                    cur = nxt;
                    if (++hops > n)
                        panic("%s routing failed to converge",
                              toString(kind_));
                }
                nextHop_[s][d] = first;
                dist[s][d] = hops;
            }
        }
    } else {
        // BFS shortest paths with lowest-index tie-breaking over the
        // live directed adjacency (a down link masks one direction).
        for (unsigned s = 0; s < n; ++s) {
            std::vector<int> parent(n, -1);
            auto &d = dist[s];
            d[s] = 0;
            std::queue<int> q;
            q.push(static_cast<int>(s));
            while (!q.empty()) {
                const int u = q.front();
                q.pop();
                for (int v : adj[static_cast<std::size_t>(u)]) {
                    if (d[static_cast<std::size_t>(v)] != big)
                        continue;
                    if (edgeDown(u, v))
                        continue;
                    d[static_cast<std::size_t>(v)] =
                        d[static_cast<std::size_t>(u)] + 1;
                    parent[static_cast<std::size_t>(v)] = u;
                    q.push(v);
                }
            }
            for (unsigned v = 0; v < n; ++v) {
                if (v == s)
                    continue;
                if (d[v] == big) {
                    // A statically disconnected topology is a build
                    // error; one cut off by masked link failures is a
                    // runtime condition the fabric routes around via
                    // host forwarding.
                    if (downEdges_.empty())
                        fatal("topology %s with %u nodes is "
                              "disconnected", toString(kind_), n);
                    continue;
                }
                int cur = static_cast<int>(v);
                while (parent[static_cast<std::size_t>(cur)] !=
                       static_cast<int>(s))
                    cur = parent[static_cast<std::size_t>(cur)];
                nextHop_[s][v] = cur;
            }
        }
    }

    // Broadcast trees: the union of the unicast paths from the
    // source to every node, so broadcast copies follow the same
    // (deadlock-managed) channel order as unicast traffic. Nodes the
    // source cannot reach are simply absent from its tree.
    for (unsigned s = 0; s < n; ++s) {
        for (unsigned v = 0; v < n; ++v) {
            if (v == s || dist[s][v] == big)
                continue;
            int cur = static_cast<int>(s);
            while (cur != static_cast<int>(v)) {
                const int nxt = nextHop_[static_cast<std::size_t>(
                    cur)][v];
                auto &children =
                    bcastTree[s][static_cast<std::size_t>(cur)];
                if (std::find(children.begin(), children.end(),
                              nxt) == children.end())
                    children.push_back(nxt);
                cur = nxt;
            }
        }
        for (auto &children : bcastTree[s])
            std::sort(children.begin(), children.end());
    }
}

unsigned
TopologyGraph::diameter() const
{
    unsigned d = 0;
    for (unsigned a = 0; a < n; ++a)
        for (unsigned b = 0; b < n; ++b)
            if (dist[a][b] != unreachable)
                d = std::max(d, dist[a][b]);
    return d;
}

unsigned
TopologyGraph::numDirectedLinks() const
{
    unsigned cnt = 0;
    for (const auto &list : adj)
        cnt += static_cast<unsigned>(list.size());
    return cnt;
}

} // namespace noc
} // namespace dimmlink
