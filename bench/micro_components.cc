/**
 * @file
 * google-benchmark microbenches of the hot simulator components:
 * CRC-32, packet encode/decode, the MCMF placement solver, the DRAM
 * controller, the router network, the event queue itself, and R-MAT
 * graph generation.
 */

#include <benchmark/benchmark.h>

#include "common/crc32.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "dram/dram_controller.hh"
#include "mapping/placement.hh"
#include "noc/network.hh"
#include "proto/codec.hh"
#include "sim/event_queue.hh"
#include "workloads/graph.hh"

using namespace dimmlink;

static void
BM_Crc32(benchmark::State &state)
{
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(data.data(), data.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(16)->Arg(272)->Arg(4096);

static void
BM_PacketEncodeDecode(benchmark::State &state)
{
    const proto::Packet p = proto::Codec::makeWriteReq(
        1, 2, 0x1000, 3,
        static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const auto wire = proto::encode(p);
        proto::Packet out;
        benchmark::DoNotOptimize(proto::decode(wire, out));
    }
}
BENCHMARK(BM_PacketEncodeDecode)->Arg(0)->Arg(64)->Arg(256);

static void
BM_McmfPlacement(benchmark::State &state)
{
    const auto threads = static_cast<unsigned>(state.range(0));
    const auto dimms = static_cast<unsigned>(state.range(1));
    mapping::TrafficProfiler prof(threads, dimms);
    Rng rng(1);
    for (ThreadId t = 0; t < threads; ++t)
        for (DimmId d = 0; d < dimms; ++d)
            prof.record(t, d,
                        static_cast<std::uint32_t>(rng.below(1000)));
    auto dist = [](DimmId j, DimmId k) {
        return std::abs(static_cast<int>(j) - static_cast<int>(k));
    };
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mapping::solvePlacement(prof, dist, 4));
    // The paper quotes ~2 ms for 64 threads / 16 DIMMs on a 5950X.
}
BENCHMARK(BM_McmfPlacement)
    ->Args({16, 4})
    ->Args({32, 8})
    ->Args({64, 16});

static void
BM_DramControllerThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        stats::Registry reg;
        dram::DramController ctrl(
            eq, "c", dram::Timing::preset("DDR4_2400"), 2, 64,
            reg.group("c"));
        Rng rng(7);
        unsigned done = 0;
        constexpr unsigned total = 1000;
        unsigned submitted = 0;
        std::function<void()> pump = [&] {
            while (submitted < total) {
                dram::DramRequest req;
                req.local = rng.below(1 << 24) & ~Addr(63);
                req.isWrite = rng.chance(0.3);
                req.done = [&] { ++done; };
                if (!ctrl.enqueue(std::move(req)))
                    return;
                ++submitted;
            }
        };
        ctrl.setUnblockCallback(pump);
        pump();
        while (done < total && eq.step()) {
        }
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_DramControllerThroughput);

static void
BM_NetworkRandomTraffic(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        stats::Registry reg;
        LinkConfig lc;
        noc::Network net(eq, "n", lc,
                         static_cast<unsigned>(state.range(0)),
                         reg);
        Rng rng(3);
        unsigned delivered = 0;
        constexpr unsigned total = 500;
        for (unsigned i = 0; i < total; ++i) {
            noc::Message m;
            m.src = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(state.range(0))));
            m.dst = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(state.range(0))));
            m.flits = 1 + static_cast<unsigned>(rng.below(16));
            m.deliver = [&](int) { ++delivered; };
            while (!net.tryInject(m))
                eq.step();
        }
        while (delivered < total && eq.step()) {
        }
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 500);
}
BENCHMARK(BM_NetworkRandomTraffic)->Arg(4)->Arg(8);

static void
BM_EventQueueChurn(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(static_cast<Tick>(i * 7 % 997),
                        [&] { ++fired; });
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueChurn);

static void
BM_GraphRmat(benchmark::State &state)
{
    const auto scale = static_cast<unsigned>(state.range(0));
    std::uint64_t edges = 0;
    for (auto _ : state) {
        const auto g = workloads::Graph::rmat(scale, 8, 1);
        edges = g.numEdges();
        benchmark::DoNotOptimize(edges);
    }
    state.counters["csr_edges"] = static_cast<double>(edges);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * (8ull << scale)));
}
BENCHMARK(BM_GraphRmat)->Arg(15)->Arg(17)->Unit(benchmark::kMillisecond);
