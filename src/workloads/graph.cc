#include "workloads/graph.hh"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/log.hh"

namespace dimmlink {
namespace workloads {

Graph
Graph::fromEdges(
    std::uint32_t vertices,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges,
    Rng &rng)
{
    // Each undirected edge lands in both endpoints' rows.
    Graph g;
    g.rowPtr.assign(vertices + 1, 0);
    for (const auto &[u, v] : edges) {
        ++g.rowPtr[u + 1];
        ++g.rowPtr[v + 1];
    }
    for (std::uint32_t v = 0; v < vertices; ++v)
        g.rowPtr[v + 1] += g.rowPtr[v];

    // Counting sort by source: each row holds its neighbours in edge
    // list order.
    std::vector<std::uint32_t> scattered(g.rowPtr[vertices]);
    std::vector<std::uint64_t> cursor(g.rowPtr.begin(),
                                      g.rowPtr.end() - 1);
    for (const auto &[u, v] : edges) {
        scattered[cursor[u]++] = v;
        scattered[cursor[v]++] = u;
    }
    decltype(edges)().swap(edges);

    // A symmetric graph is its own transpose, so scattering the rows
    // again in vertex order leaves every row sorted by neighbour.
    g.colIdx.resize(g.rowPtr[vertices]);
    std::copy(g.rowPtr.begin(), g.rowPtr.end() - 1, cursor.begin());
    for (std::uint32_t u = 0; u < vertices; ++u)
        for (auto e = g.rowPtr[u]; e < g.rowPtr[u + 1]; ++e)
            g.colIdx[cursor[scattered[e]]++] = u;
    decltype(scattered)().swap(scattered);

    // Drop duplicates and self loops, compacting the rows down.
    std::uint64_t out = 0;
    for (std::uint32_t v = 0; v < vertices; ++v) {
        const std::uint64_t begin = g.rowPtr[v];
        const std::uint64_t end = g.rowPtr[v + 1];
        const std::uint64_t row = out;
        g.rowPtr[v] = row;
        for (std::uint64_t e = begin; e < end; ++e) {
            const std::uint32_t u = g.colIdx[e];
            if (u != v && (out == row || g.colIdx[out - 1] != u))
                g.colIdx[out++] = u;
        }
    }
    g.rowPtr[vertices] = out;
    g.colIdx.resize(out);
    g.colIdx.shrink_to_fit();

    // Weights last: one draw per CSR slot, in CSR order.
    g.weights.resize(out);
    for (auto &w : g.weights)
        w = static_cast<std::uint32_t>(1 + rng.below(63)); // [1, 64)
    return g;
}

Graph
Graph::rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed)
{
    const std::uint32_t n = 1u << scale;
    const std::uint64_t m =
        static_cast<std::uint64_t>(edge_factor) * n;
    Rng rng(seed);

    // LiveJournal-like skew.
    const double a = 0.57, b = 0.19, c = 0.19;

    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(m);
    for (std::uint64_t e = 0; e < m; ++e) {
        std::uint32_t u = 0, v = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            // Quadrant [0, a) top-left, [a, a+b) top-right, [a+b,
            // a+b+c) bottom-left, else bottom-right; picked without
            // branches, which every draw would mispredict.
            const double r = rng.real();
            const unsigned ub = r >= a + b;
            const unsigned vb =
                ((r >= a) & (r < a + b)) | (r >= a + b + c);
            u = (u << 1) | ub;
            v = (v << 1) | vb;
        }
        edges.emplace_back(u, v);
    }
    return fromEdges(n, std::move(edges), rng);
}

Graph
Graph::uniform(std::uint32_t vertices, std::uint64_t edge_count,
               std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(edge_count);
    for (std::uint64_t e = 0; e < edge_count; ++e) {
        const auto u =
            static_cast<std::uint32_t>(rng.below(vertices));
        const auto v =
            static_cast<std::uint32_t>(rng.below(vertices));
        edges.emplace_back(u, v);
    }
    return fromEdges(vertices, std::move(edges), rng);
}

Graph
Graph::grid2d(std::uint32_t rows, std::uint32_t cols)
{
    Rng rng(7);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    auto id = [cols](std::uint32_t r, std::uint32_t c) {
        return r * cols + c;
    };
    for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                edges.emplace_back(id(r, c), id(r, c + 1));
            if (r + 1 < rows)
                edges.emplace_back(id(r, c), id(r + 1, c));
        }
    }
    return fromEdges(rows * cols, std::move(edges), rng);
}

std::vector<std::uint32_t>
Graph::bfsReference(std::uint32_t source) const
{
    constexpr auto inf = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> dist(numVertices(), inf);
    std::queue<std::uint32_t> q;
    dist[source] = 0;
    q.push(source);
    while (!q.empty()) {
        const std::uint32_t v = q.front();
        q.pop();
        for (std::uint64_t e = edgeBegin(v); e < edgeEnd(v); ++e) {
            const std::uint32_t u = neighbor(e);
            if (dist[u] == inf) {
                dist[u] = dist[v] + 1;
                q.push(u);
            }
        }
    }
    return dist;
}

std::vector<std::uint64_t>
Graph::ssspReference(std::uint32_t source) const
{
    constexpr auto inf = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::uint64_t> dist(numVertices(), inf);
    using Item = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[source] = 0;
    pq.emplace(0, source);
    while (!pq.empty()) {
        const auto [d, v] = pq.top();
        pq.pop();
        if (d != dist[v])
            continue;
        for (std::uint64_t e = edgeBegin(v); e < edgeEnd(v); ++e) {
            const std::uint32_t u = neighbor(e);
            const std::uint64_t nd = d + weight(e);
            if (nd < dist[u]) {
                dist[u] = nd;
                pq.emplace(nd, u);
            }
        }
    }
    return dist;
}

std::vector<double>
Graph::pagerankReference(unsigned iterations, double damping) const
{
    const std::uint32_t n = numVertices();
    std::vector<double> rank(n, 1.0 / n);
    std::vector<double> next(n, 0.0);
    for (unsigned it = 0; it < iterations; ++it) {
        std::fill(next.begin(), next.end(), (1.0 - damping) / n);
        for (std::uint32_t v = 0; v < n; ++v) {
            const std::uint32_t deg = degree(v);
            if (deg == 0)
                continue;
            const double share = damping * rank[v] / deg;
            for (std::uint64_t e = edgeBegin(v); e < edgeEnd(v); ++e)
                next[neighbor(e)] += share;
        }
        rank.swap(next);
    }
    return rank;
}

} // namespace workloads
} // namespace dimmlink
