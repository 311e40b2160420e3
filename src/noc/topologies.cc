/**
 * @file
 * The four DL-group topologies (Fig. 17): HalfRing is a chain, Ring
 * closes it, Mesh and Torus are two-row grids.
 */

#include "common/log.hh"
#include "noc/topology.hh"

namespace dimmlink {
namespace noc {

void
TopologyGraph::build(Topology kind)
{
    switch (kind) {
      case Topology::HalfRing:
        buildChain();
        return;
      case Topology::Ring:
        buildRing();
        return;
      case Topology::Mesh:
        buildGrid(false);
        return;
      case Topology::Torus:
        buildGrid(true);
        return;
    }
    fatal("unknown NoC topology %d (valid: HalfRing, Ring, Mesh, Torus)",
          static_cast<int>(kind));
}

/** The practical prototype: a linear chain of DIMMs. */
void
TopologyGraph::buildChain()
{
    for (unsigned i = 0; i + 1 < n; ++i)
        addEdge(static_cast<int>(i), static_cast<int>(i + 1));
}

/** Chain plus a wrap-around link (cyclic once it is a real ring). */
void
TopologyGraph::buildRing()
{
    buildChain();
    if (n > 2) {
        addEdge(static_cast<int>(n - 1), 0);
        cyclic_ = true;
    }
}

/**
 * Two facing rows of DIMM slots: a 2 x (n/2) grid, with row
 * wrap-around links on the torus. Groups of one or two nodes degrade
 * to a chain (and fall back to BFS routing). Larger grids use
 * row-first ("XY") routing: move along the own row (with wrap on a
 * torus) until the destination column, then take the single column
 * hop. Row channels are the only rings, and packets never turn back
 * into a row, which keeps the channel-dependency graph deadlock-free
 * with bubble injection.
 */
void
TopologyGraph::buildGrid(bool torus)
{
    if (n <= 2) {
        buildChain();
        return;
    }
    const unsigned cols = n / 2;
    auto id = [cols](unsigned r, unsigned c) {
        return static_cast<int>(r * cols + c);
    };
    for (unsigned r = 0; r < 2; ++r)
        for (unsigned c = 0; c + 1 < cols; ++c)
            addEdge(id(r, c), id(r, c + 1));
    for (unsigned c = 0; c < cols; ++c)
        addEdge(id(0, c), id(1, c));
    const bool wrap = torus && cols > 2;
    if (wrap) {
        // Row wrap-around; the column wrap would duplicate the
        // existing 2-row vertical edges.
        for (unsigned r = 0; r < 2; ++r)
            addEdge(id(r, 0), id(r, cols - 1));
        cyclic_ = true;
    }
    routeFn = [cols, wrap, id](int node, int dst) {
        const unsigned row = static_cast<unsigned>(node) / cols;
        const unsigned col = static_cast<unsigned>(node) % cols;
        const unsigned drow = static_cast<unsigned>(dst) / cols;
        const unsigned dcol = static_cast<unsigned>(dst) % cols;
        if (col == dcol)
            return id(drow, dcol); // the column hop (or there)
        // Choose the shorter row direction (wrap on torus only).
        const unsigned right = (dcol + cols - col) % cols;
        const unsigned left = (col + cols - dcol) % cols;
        const bool go_right = wrap ? right <= left : dcol > col;
        const unsigned next_col = go_right
            ? (col + 1) % cols
            : (col + cols - 1) % cols;
        return id(row, next_col);
    };
}

} // namespace noc
} // namespace dimmlink
