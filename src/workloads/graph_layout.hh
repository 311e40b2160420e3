/**
 * @file
 * Shared data layout for the graph kernels: vertices are divided into
 * T contiguous thread slices; each slice's property arrays and edge
 * lists live on the slice's home DIMM (block distribution). Threads
 * therefore read their own slice locally and reach into other DIMMs
 * for neighbor properties — the access pattern whose cost the IDC
 * fabrics differ on.
 */

#ifndef DIMMLINK_WORKLOADS_GRAPH_LAYOUT_HH
#define DIMMLINK_WORKLOADS_GRAPH_LAYOUT_HH

#include <vector>

#include "workloads/graph.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

class GraphSlices
{
  public:
    /**
     * @param prop_arrays number of per-vertex property arrays to
     *        place (e.g. dist, rank, contrib).
     * @param prop_bytes  bytes per property element.
     */
    GraphSlices(const Graph &g, const WorkloadParams &p,
                AddressAllocator &alloc, unsigned prop_arrays,
                unsigned prop_bytes = 4)
        : graph(g), params(p), propBytes(prop_bytes)
    {
        const std::uint32_t v_cnt = g.numVertices();
        const unsigned t_cnt = p.numThreads;
        // Edge-balanced contiguous slices: skewed degree
        // distributions (R-MAT hubs) would otherwise concentrate
        // most of the work in slice 0 and serialize every
        // barrier-synchronized kernel on one thread.
        bounds.resize(t_cnt + 1);
        bounds[0] = 0;
        bounds[t_cnt] = v_cnt;
        const std::uint64_t e_cnt = g.numEdges();
        std::uint32_t v = 0;
        for (unsigned t = 1; t < t_cnt; ++t) {
            const std::uint64_t target = e_cnt * t / t_cnt;
            while (v < v_cnt && g.edgeBegin(v) < target)
                ++v;
            // Keep at least one vertex per remaining slice when the
            // graph is tiny.
            const std::uint32_t max_start = v_cnt - (t_cnt - t);
            bounds[t] = std::min(std::max(v, bounds[t - 1]),
                                 std::min(max_start,
                                          v_cnt));
            bounds[t] = std::max(bounds[t], bounds[t - 1]);
            v = bounds[t];
        }

        propBase.assign(prop_arrays, std::vector<Addr>(t_cnt, 0));
        edgeBase.assign(t_cnt, 0);
        for (unsigned t = 0; t < t_cnt; ++t) {
            const DimmId home = homeOfSlice(t);
            const std::uint32_t verts = bounds[t + 1] - bounds[t];
            for (unsigned a = 0; a < prop_arrays; ++a)
                propBase[a][t] = alloc.alloc(
                    home, static_cast<std::uint64_t>(verts) *
                              prop_bytes);
            const std::uint64_t edges =
                g.edgeBegin(bounds[t + 1]) - g.edgeBegin(bounds[t]);
            edgeBase[t] = alloc.alloc(home, edges * 8);
        }
    }

    std::uint32_t vStart(ThreadId t) const { return bounds[t]; }
    std::uint32_t vEnd(ThreadId t) const { return bounds[t + 1]; }

    /** The thread slice that owns vertex @p v. */
    ThreadId
    sliceOf(std::uint32_t v) const
    {
        // bounds is sorted; find the last start <= v.
        unsigned lo = 0, hi = params.numThreads - 1;
        while (lo < hi) {
            const unsigned mid = (lo + hi + 1) / 2;
            if (bounds[mid] <= v)
                lo = mid;
            else
                hi = mid - 1;
        }
        return lo;
    }

    /** Home DIMM of vertex @p v's data. */
    DimmId
    homeOf(std::uint32_t v) const
    {
        return homeOfSlice(sliceOf(v));
    }

    /** Address of property @p array element for vertex @p v. */
    Addr
    propAddr(unsigned array, std::uint32_t v) const
    {
        const ThreadId t = sliceOf(v);
        return propBase[array][t] +
               static_cast<Addr>(v - bounds[t]) * propBytes;
    }

    /**
     * Broadcast mode (Fig. 12): give every DIMM a local copy of one
     * whole property array, which the DIMM's leader thread refreshes
     * with explicit broadcasts. Does nothing otherwise. The bump
     * allocator makes allocation order part of every address, so a
     * kernel calls this at a fixed point of its construction.
     */
    void
    allocCopies(AddressAllocator &alloc)
    {
        if (!params.broadcastMode)
            return;
        copyBase.resize(params.numDimms);
        for (unsigned d = 0; d < params.numDimms; ++d)
            copyBase[d] = alloc.alloc(
                static_cast<DimmId>(d),
                static_cast<std::uint64_t>(graph.numVertices()) *
                    propBytes);
    }

    /** Whether thread @p t is the first slice on its home DIMM: the
     * one that broadcasts the DIMM's block. */
    bool
    dimmLeader(ThreadId t) const
    {
        return t == 0 || homeOfSlice(t - 1) != homeOfSlice(t);
    }

    /** Bytes of one property array held by the slices homed on DIMM
     * @p d: the size of the DIMM's broadcast. */
    std::uint64_t
    dimmBytes(DimmId d) const
    {
        std::uint64_t verts = 0;
        for (unsigned t = 0; t < params.numThreads; ++t)
            if (homeOfSlice(t) == d)
                verts += vEnd(t) - vStart(t);
        return verts * propBytes;
    }

    /** The read of neighbor @p u's property @p array by a thread on
     * DIMM @p home: the local copy in broadcast mode, else the
     * owner's slice with data class @p cls. */
    MemRef
    neighborRead(unsigned array, std::uint32_t u, DimmId home,
                 DataClass cls) const
    {
        if (params.broadcastMode)
            return MemRef{copyBase[home] + static_cast<Addr>(u) * propBytes,
                          static_cast<std::uint16_t>(propBytes), false,
                          DataClass::Private};
        return MemRef{propAddr(array, u),
                      static_cast<std::uint16_t>(propBytes), false, cls};
    }

    /** Address of edge @p e (owned by slice @p t). */
    Addr
    edgeAddr(ThreadId t, std::uint64_t e) const
    {
        return edgeBase[t] +
               (e - graph.edgeBegin(bounds[t])) * 8;
    }

  private:
    DimmId
    homeOfSlice(ThreadId t) const
    {
        return blockHome(t, params.numThreads, params.numDimms);
    }

    const Graph &graph;
    const WorkloadParams &params;
    unsigned propBytes;
    std::vector<std::uint32_t> bounds;
    std::vector<std::vector<Addr>> propBase;
    std::vector<Addr> edgeBase;
    std::vector<Addr> copyBase; ///< Per DIMM; broadcast mode only.
};

} // namespace workloads
} // namespace dimmlink

#endif // DIMMLINK_WORKLOADS_GRAPH_LAYOUT_HH
