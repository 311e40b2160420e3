/** @file Workload tests: graph container/generators, slice layout,
 * and algorithmic verification of every kernel run on the full NMP
 * system. */

#include <gtest/gtest.h>

#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/graph.hh"
#include "workloads/graph_layout.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {
namespace {

TEST(Graph, RmatIsDeterministic)
{
    const Graph a = Graph::rmat(8, 4, 42);
    const Graph b = Graph::rmat(8, 4, 42);
    ASSERT_EQ(a.numVertices(), b.numVertices());
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (std::uint32_t v = 0; v < a.numVertices(); ++v)
        ASSERT_EQ(a.degree(v), b.degree(v));
    for (std::uint64_t e = 0; e < a.numEdges(); ++e) {
        ASSERT_EQ(a.neighbor(e), b.neighbor(e));
        ASSERT_EQ(a.weight(e), b.weight(e));
    }
}

/** FNV-1a over a graph's whole CSR: vertex count, row offsets,
 * neighbours and weights, each folded in as a 64-bit word. */
std::uint64_t
csrDigest(const Graph &g)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto fold = [&h](std::uint64_t word) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    fold(g.numVertices());
    for (std::uint32_t v = 0; v <= g.numVertices(); ++v)
        fold(v < g.numVertices() ? g.edgeBegin(v) : g.numEdges());
    for (std::uint64_t e = 0; e < g.numEdges(); ++e)
        fold(g.neighbor(e));
    for (std::uint64_t e = 0; e < g.numEdges(); ++e)
        fold(g.weight(e));
    return h;
}

// Each generator's exact CSR, weights included: a graph's identity is
// its edge draws followed by one weight draw per CSR slot, and every
// golden stats file built on a graph depends on it.
TEST(Graph, GeneratorsArePinned)
{
    EXPECT_EQ(csrDigest(Graph::rmat(8, 4, 42)), 0xc4687277096bb0a1ull);
    EXPECT_EQ(csrDigest(Graph::rmat(12, 8, 1)), 0x5497569845e80b15ull);
    EXPECT_EQ(csrDigest(Graph::rmat(15, 8, 1)), 0x2911e962e23ebd01ull);
    EXPECT_EQ(csrDigest(Graph::uniform(200, 800, 5)), 0xc0b7e96199096c43ull);
    EXPECT_EQ(csrDigest(Graph::grid2d(4, 5)), 0x811c19308d48b115ull);
}

TEST(Graph, CsrIsConsistent)
{
    const Graph g = Graph::rmat(8, 4, 7);
    EXPECT_EQ(g.numVertices(), 256u);
    EXPECT_GT(g.numEdges(), 500u);
    std::uint64_t sum = 0;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(g.edgeEnd(v) - g.edgeBegin(v), g.degree(v));
        for (std::uint64_t e = g.edgeBegin(v); e < g.edgeEnd(v);
             ++e) {
            EXPECT_LT(g.neighbor(e), g.numVertices());
            EXPECT_NE(g.neighbor(e), v); // no self loops
            EXPECT_GE(g.weight(e), 1u);
        }
        sum += g.degree(v);
    }
    EXPECT_EQ(sum, g.numEdges());
}

TEST(Graph, RmatIsSkewed)
{
    const Graph g = Graph::rmat(10, 8, 3);
    std::uint32_t max_deg = 0;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v)
        max_deg = std::max(max_deg, g.degree(v));
    const double avg =
        static_cast<double>(g.numEdges()) / g.numVertices();
    EXPECT_GT(max_deg, 8 * avg); // heavy-tailed degrees
}

TEST(Graph, Grid2dStructure)
{
    const Graph g = Graph::grid2d(4, 5);
    EXPECT_EQ(g.numVertices(), 20u);
    // Interior vertex has degree 4, corner 2.
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(6), 4u);
}

TEST(Graph, BfsAndSsspReferencesAgreeOnUnitWeights)
{
    // On any graph, hop distance <= weighted distance / min weight.
    const Graph g = Graph::uniform(200, 800, 5);
    const auto bfs = g.bfsReference(0);
    const auto sssp = g.ssspReference(0);
    for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
        const bool bfs_reach =
            bfs[v] != std::numeric_limits<std::uint32_t>::max();
        const bool sssp_reach =
            sssp[v] != std::numeric_limits<std::uint64_t>::max();
        EXPECT_EQ(bfs_reach, sssp_reach);
        if (bfs_reach) {
            EXPECT_LE(bfs[v], sssp[v]); // weights >= 1
        }
    }
}

TEST(GraphSlices, LayoutIsDisjointAndHomed)
{
    const Graph g = Graph::rmat(10, 4, 1);
    WorkloadParams p;
    p.numThreads = 16;
    p.numDimms = 4;
    dram::GlobalAddressMap gmap(4, 1ull << 30);
    AddressAllocator alloc(gmap);
    GraphSlices slices(g, p, alloc, 2, 8);

    for (unsigned t = 0; t < 16; ++t) {
        EXPECT_LE(slices.vStart(t), slices.vEnd(t));
        for (std::uint32_t v = slices.vStart(t);
             v < slices.vEnd(t); ++v) {
            ASSERT_EQ(slices.sliceOf(v), t);
            const Addr a = slices.propAddr(0, v);
            ASSERT_EQ(gmap.dimmOf(a), slices.homeOf(v));
            ASSERT_EQ(slices.homeOf(v), t / 4);
        }
    }
    EXPECT_EQ(slices.vEnd(15), g.numVertices());
}

TEST(GraphSlices, EdgeBalancedAgainstRmatSkew)
{
    const Graph g = Graph::rmat(12, 8, 1);
    WorkloadParams p;
    p.numThreads = 16;
    p.numDimms = 4;
    dram::GlobalAddressMap gmap(4, 1ull << 30);
    AddressAllocator alloc(gmap);
    GraphSlices slices(g, p, alloc, 1);

    // No slice may own more than ~3x its fair share of edges.
    const double fair =
        static_cast<double>(g.numEdges()) / p.numThreads;
    for (unsigned t = 0; t < p.numThreads; ++t) {
        const std::uint64_t edges =
            g.edgeBegin(slices.vEnd(t)) -
            g.edgeBegin(slices.vStart(t));
        EXPECT_LT(static_cast<double>(edges), 3.0 * fair)
            << "slice " << t;
    }
}

TEST(AddressAllocatorTest, BumpAllocatesAligned)
{
    dram::GlobalAddressMap gmap(2, 1ull << 30);
    AddressAllocator alloc(gmap);
    const Addr a = alloc.alloc(0, 100);
    const Addr b = alloc.alloc(0, 100);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_EQ(gmap.dimmOf(a), 0);
    EXPECT_EQ(gmap.dimmOf(alloc.alloc(1, 64)), 1);
}

TEST(WorkloadFactory, KnownNamesAndLists)
{
    dram::GlobalAddressMap gmap(4, 1ull << 30);
    WorkloadParams p;
    p.numThreads = 16;
    p.numDimms = 4;
    p.scale = 8;
    // Each name builds the kernel that answers to it.
    for (const auto &name : knownWorkloads())
        EXPECT_EQ(makeWorkload(name, p, gmap)->name(), name);
    EXPECT_EQ(p2pWorkloadNames().size(), 6u);
    EXPECT_EQ(broadcastWorkloadNames().size(), 3u);
    EXPECT_EXIT(makeWorkload("nope", p, gmap),
                ::testing::ExitedWithCode(1),
                "unknown workload 'nope' \\(registered: bfs, embed, "
                ".*, tspow\\)");
}

/** Full-system algorithmic verification of each kernel. */
struct VerifyCase
{
    const char *name;
    std::uint64_t scale;
    bool broadcast;
};

/** Prints the case by value. The default printer dumps the struct's
 * bytes, so the listed test name would carry the address of `name`
 * and change from one load of the binary to the next. */
void
PrintTo(const VerifyCase &c, std::ostream *os)
{
    *os << c.name << '/' << c.scale << (c.broadcast ? "/bc" : "");
}

class KernelVerify : public ::testing::TestWithParam<VerifyCase>
{
};

TEST_P(KernelVerify, ResultMatchesReferenceOnTheNmpSystem)
{
    const auto [name, scale, broadcast] = GetParam();
    auto cfg = SystemConfig::preset("4D-2C");
    System sys(cfg);

    WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = scale;
    p.rounds = 4;
    p.broadcastMode = broadcast;
    auto wl = makeWorkload(name, p, sys.addressMap());

    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified) << name;
    EXPECT_GT(r.kernelTicks, 0u);
    EXPECT_GT(r.instructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelVerify,
    ::testing::Values(VerifyCase{"bfs", 9, false},
                      VerifyCase{"hotspot", 1, false},
                      VerifyCase{"kmeans", 1, false},
                      VerifyCase{"nw", 1, false},
                      VerifyCase{"pagerank", 8, false},
                      VerifyCase{"sssp", 8, false},
                      VerifyCase{"spmv", 8, false},
                      VerifyCase{"tspow", 1, false},
                      VerifyCase{"pagerank", 8, true},
                      VerifyCase{"sssp", 8, true},
                      VerifyCase{"spmv", 8, true},
                      VerifyCase{"stream", 1, false},
                      VerifyCase{"gups", 1, false}),
    [](const auto &info) {
        return std::string(info.param.name) +
               (info.param.broadcast ? "_bc" : "");
    });

// At 12 DIMMs the table does not split evenly and the last DIMM holds
// the remainder; every update must still land inside the bytes its
// DIMM placed.
TEST(Gups, UpdatesStayInsideTheirDimmsBlock)
{
    dram::GlobalAddressMap gmap(12, 1ull << 30);
    WorkloadParams p;
    p.numThreads = 24;
    p.numDimms = 12;
    p.scale = 1;
    auto wl = makeWorkload("gups", p, gmap);
    for (ThreadId t = 0; t < p.numThreads; ++t) {
        const auto prog = wl->program(t);
        for (Op op = prog->next(); op.kind != Op::Kind::Done;
             op = prog->next()) {
            for (const MemRef &r : op.refs) {
                const DimmId d = gmap.dimmOf(r.addr);
                ASSERT_LE(gmap.localOf(r.addr) + r.bytes,
                          wl->placedBytes(d))
                    << "thread " << t << " DIMM " << d;
            }
        }
    }
}

TEST(KernelRerun, ResetAllowsASecondVerifiedRun)
{
    auto cfg = SystemConfig::preset("4D-2C");
    System sys(cfg);
    WorkloadParams p;
    p.numThreads = 16;
    p.numDimms = 4;
    p.scale = 8;
    auto wl = makeWorkload("bfs", p, sys.addressMap());

    Runner r1(sys, *wl);
    EXPECT_TRUE(r1.run().verified);
    wl->reset();
    Runner r2(sys, *wl);
    EXPECT_TRUE(r2.run().verified);
}

} // namespace
} // namespace workloads
} // namespace dimmlink
