/** @file Interconnect tests: topology construction and routing,
 * link serialization, router forwarding, credits, and broadcast. */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace noc {
namespace {

TEST(Topology, HalfRingStructure)
{
    TopologyGraph g(Topology::HalfRing, 8);
    EXPECT_EQ(g.numDirectedLinks(), 2u * 7);
    EXPECT_EQ(g.diameter(), 7u);
    EXPECT_EQ(g.distance(0, 7), 7u);
    EXPECT_EQ(g.nextHop(0, 7), 1);
    EXPECT_EQ(g.nextHop(7, 0), 6);
}

TEST(Topology, RingHalvesTheDiameter)
{
    TopologyGraph g(Topology::Ring, 8);
    EXPECT_EQ(g.numDirectedLinks(), 2u * 8);
    EXPECT_EQ(g.diameter(), 4u);
    EXPECT_EQ(g.distance(0, 7), 1u);
}

TEST(Topology, MeshAndTorus)
{
    TopologyGraph mesh(Topology::Mesh, 8); // 2 x 4 grid
    EXPECT_EQ(mesh.diameter(), 4u);        // corner to corner
    TopologyGraph torus(Topology::Torus, 8);
    EXPECT_LT(torus.diameter(), mesh.diameter());
}

TEST(Topology, TinyGroupsDegenerate)
{
    TopologyGraph g1(Topology::Ring, 1);
    EXPECT_EQ(g1.diameter(), 0u);
    TopologyGraph g2(Topology::Torus, 2);
    EXPECT_EQ(g2.diameter(), 1u);
}

struct TopoCase
{
    Topology kind;
    unsigned nodes;
};

class TopologyRouting : public ::testing::TestWithParam<TopoCase>
{
};

TEST_P(TopologyRouting, NextHopsReachDestinationInDistanceSteps)
{
    const auto [kind, n] = GetParam();
    TopologyGraph g(kind, n);
    for (unsigned s = 0; s < n; ++s) {
        for (unsigned d = 0; d < n; ++d) {
            if (s == d)
                continue;
            int cur = static_cast<int>(s);
            unsigned hops = 0;
            while (cur != static_cast<int>(d)) {
                cur = g.nextHop(cur, static_cast<int>(d));
                ASSERT_GE(cur, 0);
                ++hops;
                ASSERT_LE(hops, n);
            }
            EXPECT_EQ(hops, g.distance(static_cast<int>(s),
                                       static_cast<int>(d)));
        }
    }
}

TEST_P(TopologyRouting, BroadcastTreeCoversEveryNodeOnce)
{
    const auto [kind, n] = GetParam();
    TopologyGraph g(kind, n);
    for (unsigned s = 0; s < n; ++s) {
        // Walk the tree from the source; every node must be visited
        // exactly once.
        std::set<int> visited;
        std::vector<int> frontier{static_cast<int>(s)};
        visited.insert(static_cast<int>(s));
        while (!frontier.empty()) {
            const int u = frontier.back();
            frontier.pop_back();
            for (int c :
                 g.broadcastChildren(static_cast<int>(s), u)) {
                ASSERT_TRUE(visited.insert(c).second)
                    << "node " << c << " visited twice";
                frontier.push_back(c);
            }
        }
        EXPECT_EQ(visited.size(), n);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyRouting,
    ::testing::Values(TopoCase{Topology::HalfRing, 2},
                      TopoCase{Topology::HalfRing, 4},
                      TopoCase{Topology::HalfRing, 8},
                      TopoCase{Topology::Ring, 4},
                      TopoCase{Topology::Ring, 8},
                      TopoCase{Topology::Mesh, 4},
                      TopoCase{Topology::Mesh, 8},
                      TopoCase{Topology::Torus, 8},
                      TopoCase{Topology::Torus, 12}));

TEST(Link, SerializationMatchesBandwidth)
{
    EventQueue eq;
    stats::Registry reg;
    Link link(eq, "l", 25.0, 8000, reg.group("l"));
    // 10 flits = 160 bytes at 25 GB/s = 6.4 ns.
    EXPECT_EQ(link.serializationTime(10), 6400u);

    Message m;
    m.flits = 10;
    EXPECT_EQ(link.transmit(m), 6400u + 8000u);
    EXPECT_EQ(link.freeAt(), 6400u);
}

TEST(Link, BackToBackTransfersQueue)
{
    EventQueue eq;
    stats::Registry reg;
    Link link(eq, "l", 25.0, 0, reg.group("l"));
    Message a, b;
    a.flits = b.flits = 10;
    EXPECT_EQ(link.transmit(a), 6400u);
    EXPECT_EQ(link.transmit(b), 12800u);
}

/** Build a Network with config overrides for the tests below. */
LinkConfig
testLinkCfg(Topology topo, unsigned buffer_flits = 40)
{
    LinkConfig cfg;
    cfg.topology = topo;
    cfg.bufferFlits = buffer_flits;
    cfg.routerLatencyPs = 4000;
    cfg.wireLatencyPs = 8000;
    return cfg;
}

TEST(Network, SingleHopLatency)
{
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(Topology::HalfRing), 4, reg);

    Tick delivered = 0;
    Message m;
    m.src = 0;
    m.dst = 1;
    m.flits = 1;
    m.deliver = [&](int node) {
        EXPECT_EQ(node, 1);
        delivered = eq.now();
    };
    ASSERT_TRUE(net.tryInject(m));
    eq.run();
    // router latency + serialization (16B at 25GB/s = 640ps) + wire
    // + downstream router latency before ejection.
    EXPECT_GE(delivered, 4000u + 640u + 8000u);
    EXPECT_LE(delivered, 4000u + 640u + 8000u + 2 * 4000u);
}

TEST(Network, MultiHopScalesWithDistance)
{
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(Topology::HalfRing), 8, reg);

    Tick t1 = 0, t7 = 0;
    Message a;
    a.src = 0;
    a.dst = 1;
    a.flits = 1;
    a.deliver = [&](int) { t1 = eq.now(); };
    Message b;
    b.src = 0;
    b.dst = 7;
    b.flits = 1;
    b.deliver = [&](int) { t7 = eq.now(); };
    ASSERT_TRUE(net.tryInject(a));
    ASSERT_TRUE(net.tryInject(b));
    eq.run();
    EXPECT_GT(t7, 5 * t1);
}

TEST(Network, BroadcastReachesAllNodes)
{
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(Topology::HalfRing), 6, reg);

    std::multiset<int> got;
    Message m;
    m.src = 2;
    m.broadcast = true;
    m.flits = 4;
    m.deliver = [&](int node) { got.insert(node); };
    ASSERT_TRUE(net.tryInject(m));
    eq.run();
    EXPECT_EQ(got.size(), 6u);
    for (int n = 0; n < 6; ++n)
        EXPECT_EQ(got.count(n), 1u) << "node " << n;
}

TEST(Network, InjectionBackpressureAndRetry)
{
    EventQueue eq;
    stats::Registry reg;
    // Tiny buffers: 4 flits per port.
    Network net(eq, "net", testLinkCfg(Topology::HalfRing, 4), 2,
                reg);

    unsigned delivered = 0;
    constexpr unsigned total = 20;
    for (unsigned i = 0; i < total; ++i) {
        Message m;
        m.src = 0;
        m.dst = 1;
        m.flits = 4;
        m.deliver = [&](int) { ++delivered; };
        net.inject(std::move(m));
    }
    // Backpressure engaged: one message fits the injection port.
    EXPECT_DOUBLE_EQ(reg.scalar("net.injected"), 1.0);
    eq.run();
    EXPECT_EQ(delivered, total);
    EXPECT_DOUBLE_EQ(reg.scalar("net.injected"), total);
    EXPECT_GT(reg.scalar("net.injectBlocked"), 0.0);
}

TEST(Network, InjectionBurstDrainsInOrder)
{
    EventQueue eq;
    stats::Registry reg;
    // 8-flit ports: node 0's injection port holds two of its 4-flit
    // messages, so most of its burst waits in the node's FIFO. Node
    // 1's replies eject at node 0, popping one of router 0's network
    // ports as well.
    Network net(eq, "net", testLinkCfg(Topology::HalfRing, 8), 4, reg);

    std::vector<unsigned> order;
    Tick last = 0;
    unsigned back = 0;
    for (unsigned i = 0; i < 10; ++i) {
        Message m;
        m.src = 0;
        m.dst = 3;
        m.flits = 4;
        m.deliver = [&, i](int) {
            order.push_back(i);
            last = eq.now();
        };
        net.inject(std::move(m));
        if (i % 3 == 0) {
            Message r;
            r.src = 1;
            r.dst = 0;
            r.flits = 2;
            r.deliver = [&](int) { ++back; };
            net.inject(std::move(r));
        }
    }
    eq.run();
    // Every message once, in offer order.
    ASSERT_EQ(order.size(), 10u);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(back, 4u);
    // The counts and timing of offering the same burst through
    // tryInject, queueing refused messages per node and retrying the
    // queue whenever the node's router pops a port: one injectBlocked
    // per refused attempt, none for a message queued behind others.
    EXPECT_DOUBLE_EQ(reg.scalar("net.injected"), 14.0);
    EXPECT_DOUBLE_EQ(reg.scalar("net.injectBlocked"), 12.0);
    EXPECT_EQ(last, 105920u);
}

TEST(Network, RefusedInjectionLeavesTheMessageIntact)
{
    EventQueue eq;
    stats::Registry reg;
    // 4-flit ports: one 4-flit message fills the injection port.
    Network net(eq, "net", testLinkCfg(Topology::HalfRing, 4), 2,
                reg);

    unsigned delivered = 0;
    Message first;
    first.src = 0;
    first.dst = 1;
    first.flits = 4;
    first.deliver = [&](int) { ++delivered; };
    ASSERT_TRUE(net.tryInject(first));

    std::vector<std::uint32_t> flips{3, 17};
    Message m;
    m.src = 0;
    m.dst = 1;
    m.flits = 4;
    m.flips = &flips;
    m.deliver = [&](int) { ++delivered; };
    EXPECT_FALSE(net.tryInject(m));
    // A refused message is untouched: the caller can offer the same
    // object again.
    EXPECT_TRUE(static_cast<bool>(m.deliver));
    EXPECT_EQ(m.flits, 4u);
    EXPECT_EQ(m.flips, &flips);
    EXPECT_EQ(flips, (std::vector<std::uint32_t>{3, 17}));

    // inject() queues it until the port frees.
    net.inject(std::move(m));
    eq.run();
    EXPECT_EQ(delivered, 2u);
    EXPECT_DOUBLE_EQ(reg.scalar("net.injected"), 2.0);
}

TEST(Network, LatencyIsSampledOncePerEjection)
{
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(Topology::HalfRing), 6, reg);
    const auto &lat = reg.group("net").distribution("latencyPs");

    // A unicast is sampled once at its destination, whether or not
    // the sender asked to hear about the delivery.
    Message u;
    u.src = 0;
    u.dst = 3;
    u.flits = 2;
    ASSERT_TRUE(net.tryInject(u));
    eq.run();
    EXPECT_EQ(lat.count(), 1u);

    // A broadcast is sampled at every ejecting node, the source's own
    // router included.
    unsigned ejected = 0;
    Message b;
    b.src = 2;
    b.broadcast = true;
    b.flits = 4;
    b.deliver = [&](int) { ++ejected; };
    ASSERT_TRUE(net.tryInject(b));
    eq.run();
    EXPECT_EQ(ejected, 6u);
    EXPECT_EQ(lat.count(), 1u + 6u);
}

TEST(Network, UnroutableDropIsNotSampled)
{
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(Topology::HalfRing), 4, reg);
    const auto &lat = reg.group("net").distribution("latencyPs");

    unsigned delivered = 0, dropped = 0;
    Message m;
    m.src = 0;
    m.dst = 3;
    m.flits = 1;
    m.deliver = [&](int) { ++delivered; };
    m.onDropped = [&] { ++dropped; };
    ASSERT_TRUE(net.tryInject(m));
    // The half ring's only route to node 3 dies before the message
    // leaves node 0.
    net.setLinkDown(1, 2, true);
    eq.run();
    EXPECT_EQ(delivered, 0u);
    EXPECT_EQ(dropped, 1u);
    EXPECT_EQ(lat.count(), 0u);
    EXPECT_DOUBLE_EQ(reg.scalar("net.router0.droppedUnroutable"), 1.0);
}

struct NetCase
{
    Topology kind;
    unsigned nodes;
    std::uint64_t seed;
};

class NetworkRandomTraffic : public ::testing::TestWithParam<NetCase>
{
};

TEST_P(NetworkRandomTraffic, EveryMessageDeliveredExactlyOnce)
{
    const auto [kind, nodes, seed] = GetParam();
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(kind), nodes, reg);
    Rng rng(seed);

    constexpr unsigned total = 300;
    std::map<unsigned, unsigned> delivery_count;
    unsigned expected = 0;
    unsigned delivered = 0;
    for (unsigned i = 0; i < total; ++i) {
        Message m;
        m.src = static_cast<int>(rng.below(nodes));
        m.broadcast = rng.chance(0.1);
        m.dst = static_cast<int>(rng.below(nodes));
        m.flits = 1 + static_cast<unsigned>(rng.below(17));
        const unsigned copies =
            m.broadcast ? nodes : 1;
        m.deliver = [&, copies, id = i](int) {
            ++delivery_count[id];
            ASSERT_LE(delivery_count[id], copies);
            ++delivered;
        };
        expected += copies;
        net.inject(std::move(m));
    }
    eq.run();
    EXPECT_EQ(delivered, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NetworkRandomTraffic,
    ::testing::Values(NetCase{Topology::HalfRing, 4, 1},
                      NetCase{Topology::HalfRing, 8, 2},
                      NetCase{Topology::Ring, 8, 3},
                      NetCase{Topology::Mesh, 8, 4},
                      NetCase{Topology::Torus, 8, 5},
                      NetCase{Topology::HalfRing, 2, 6},
                      NetCase{Topology::Torus, 16, 7}));

/** FNV-1a over the little-endian bytes of 64-bit words. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/**
 * Contended traffic on an 8-node @p kind network, folded into one
 * digest: every delivery's (tick, node, message id), then every
 * router's forwarded/ejected/blockedOnCredits counts. 24-flit ports
 * leave a 7-flit message room beside a ring's 17-flit injection
 * bubble, so heads block on credits and injections back up. Injections
 * land at random ticks and priorities, and some deliveries inject a
 * follow-up at the ejecting node or a neighbour in the same tick --
 * just after the ejecting router's pop kicked its neighbours.
 */
std::uint64_t
kickTimingDigest(Topology kind, std::uint64_t seed)
{
    constexpr unsigned nodes = 8;
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(kind, 24), nodes, reg);
    Rng rng(seed);
    Fnv1a fnv;
    unsigned next_id = 0;
    unsigned follow_ups = 150;
    unsigned expected = 0, delivered = 0;

    std::function<void(int)> send = [&](int src) {
        const unsigned id = next_id++;
        Rng r(seed ^ (id * 0x9e3779b97f4a7c15ull));
        Message m;
        m.src = src;
        m.broadcast = r.chance(0.15);
        m.dst = static_cast<int>(r.below(nodes));
        m.flits = 1 + static_cast<unsigned>(r.below(7));
        expected += m.broadcast ? nodes : 1;
        m.deliver = [&, id](int node) {
            fnv.add(eq.now());
            fnv.add(static_cast<std::uint64_t>(node));
            fnv.add(id);
            ++delivered;
            Rng f(seed ^ (id * 0xbf58476d1ce4e5b9ull) ^
                  static_cast<std::uint64_t>(node));
            if (follow_ups > 0 && f.chance(0.3)) {
                --follow_ups;
                const int shift = static_cast<int>(f.below(3)) - 1;
                send((node + shift + static_cast<int>(nodes)) %
                     static_cast<int>(nodes));
            }
        };
        net.inject(std::move(m));
    };

    constexpr EventPriority prios[3] = {EventPriority::Delivery,
                                        EventPriority::Control,
                                        EventPriority::Core};
    for (unsigned i = 0; i < 250; ++i) {
        const int src = static_cast<int>(rng.below(nodes));
        // Multiples of 640 ps (one flit's serialization) pile
        // injections onto the ticks where routers already act.
        const Tick when = 640 * rng.below(400);
        eq.schedule(when, [&send, src] { send(src); },
                    prios[rng.below(3)]);
    }
    eq.run();
    EXPECT_EQ(delivered, expected);
    EXPECT_GT(reg.scalar("net.injectBlocked"), 0.0);

    double blocked = 0;
    for (unsigned r = 0; r < nodes; ++r) {
        const std::string g = "net.router" + std::to_string(r) + ".";
        for (const char *stat : {"forwarded", "ejected",
                                 "blockedOnCredits"})
            fnv.add(static_cast<std::uint64_t>(reg.scalar(g + stat)));
        blocked += reg.scalar(g + "blockedOnCredits");
    }
    EXPECT_GT(blocked, 0.0);
    return fnv.h;
}

TEST(Network, KickTimingIsPinned)
{
    // Which tick every router pass runs at, and in which port order,
    // decides every delivery tick below; a change to how routers are
    // woken that moves any of them moves the digest.
    EXPECT_EQ(kickTimingDigest(Topology::HalfRing, 11),
              0x996673b9c8161bfeull);
    EXPECT_EQ(kickTimingDigest(Topology::Ring, 12),
              0xa306a00080dda287ull);
    // On a mesh or a torus two routers kicked by the same pop can be
    // one hop apart, so the order of their same-tick passes shows too.
    EXPECT_EQ(kickTimingDigest(Topology::Mesh, 13),
              0xc4af1d4103d224a7ull);
    EXPECT_EQ(kickTimingDigest(Topology::Torus, 14),
              0x5254213ab7fe5574ull);

    // A message that lands in a router while a kick is pending at that
    // very tick is forwarded in that kick, without a router latency.
    // Half ring 0-1-2-3; 1 flit serializes in 640 ps, the wire takes
    // 8000 ps and a router 4000 ps.
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(Topology::HalfRing), 4, reg);
    const auto unicast = [](int src, int dst, auto on_deliver) {
        Message m;
        m.src = src;
        m.dst = dst;
        m.flits = 1;
        m.deliver = on_deliver;
        return m;
    };

    // Over a link: node 2's message reaches router 1 at 12640, the
    // tick of the kick that node 1's injection at 8640 scheduled.
    Tick over_link = 0;
    net.inject(unicast(2, 1, [&](int) { over_link = eq.now(); }));
    eq.schedule(8640, [&] {
        net.inject(unicast(1, 0, [](int) {}));
    });

    // By injection, once the network is idle again: router 2 ejects
    // node 3's message and its pop kicks router 1 for that tick; the
    // delivery then injects at node 1, which forwards at once.
    Tick ejected_at_2 = 0, injected_delivered = 0;
    eq.schedule(40000, [&] {
        net.inject(unicast(3, 2, [&](int) {
            ejected_at_2 = eq.now();
            net.inject(unicast(
                1, 0, [&](int) { injected_delivered = eq.now(); }));
        }));
    });
    eq.run();
    EXPECT_EQ(over_link, 4000u + 640u + 8000u);
    EXPECT_EQ(ejected_at_2, 40000u + 4000u + 640u + 8000u + 4000u);
    EXPECT_EQ(injected_delivered, ejected_at_2 + 640u + 8000u + 4000u);
}

} // namespace
} // namespace noc
} // namespace dimmlink
