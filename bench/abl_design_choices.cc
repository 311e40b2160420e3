/**
 * @file
 * Ablations of DIMM-Link design choices beyond the paper's figures
 * (DESIGN.md calls these out): router buffer depth, the NMP cores'
 * MSHR window, the host forwarding latency, and the DLL retry
 * machinery under injected link errors.
 */

#include "bench_util.hh"

#include "common/rng.hh"
#include "proto/codec.hh"
#include "proto/dll.hh"

using namespace benchutil;

namespace {

void
bufferSweep()
{
    std::printf("--- Ablation A: router buffer depth (16D-8C, "
                "BFS, speedup vs 36 flits) ---\n");
    std::printf("%12s %10s\n", "bufferFlits", "speedup");
    double base = 0;
    for (unsigned flits : {36u, 48u, 64u, 96u, 128u}) {
        SystemConfig cfg = fabricConfig("16D-8C",
                                        IdcMethod::DimmLink);
        cfg.link.bufferFlits = flits;
        const RunResult r = runNmp(cfg, "bfs");
        if (base == 0)
            base = static_cast<double>(r.kernelTicks);
        std::printf("%12u %9.3fx\n", flits,
                    base / static_cast<double>(r.kernelTicks));
        std::fflush(stdout);
    }
    std::printf("\n");
}

void
mshrSweep()
{
    std::printf("--- Ablation B: NMP MSHR window (16D-8C, "
                "PageRank, speedup vs 4) ---\n");
    std::printf("%12s %10s\n", "MSHRs", "speedup");
    double base = 0;
    for (unsigned mshrs : {4u, 8u, 16u, 32u, 64u}) {
        SystemConfig cfg = fabricConfig("16D-8C",
                                        IdcMethod::DimmLink);
        cfg.dimm.maxOutstanding = mshrs;
        const RunResult r = runNmp(cfg, "pagerank");
        if (base == 0)
            base = static_cast<double>(r.kernelTicks);
        std::printf("%12u %9.3fx\n", mshrs,
                    base / static_cast<double>(r.kernelTicks));
        std::fflush(stdout);
    }
    std::printf("\n");
}

void
forwardLatencySweep()
{
    std::printf("--- Ablation C: host forwarding latency (16D-8C, "
                "PageRank, slowdown vs 60 ns) ---\n");
    std::printf("%12s %10s\n", "fwd ns", "slowdown");
    double base = 0;
    for (unsigned ns : {60u, 120u, 240u, 480u, 960u}) {
        SystemConfig cfg = fabricConfig("16D-8C",
                                        IdcMethod::DimmLink);
        cfg.host.forwardLatencyPs = ns * tickPerNs;
        const RunResult r = runNmp(cfg, "pagerank");
        if (base == 0)
            base = static_cast<double>(r.kernelTicks);
        std::printf("%12u %9.3fx\n", ns,
                    static_cast<double>(r.kernelTicks) / base);
        std::fflush(stdout);
    }
    std::printf("\n");
}

/**
 * A sender and a receiver joined by a lossy wire: each transmission
 * arrives at once, damaged with probability @ref rate, and its
 * ACK/NACK returns inline.
 */
struct LoopbackLink final : proto::RetrySender::Owner
{
    LoopbackLink(EventQueue &eq, stats::Registry &reg, double rate_)
        : tx(eq, *this, 500 * tickPerNs, 16, reg.group("tx")),
          rx(reg.group("rx")), rate(rate_)
    {
    }

    void
    dllTransmit(const proto::Packet &wp, void *, unsigned) override
    {
        // A damaged copy loses bit 4 of its image's middle byte.
        std::vector<std::uint32_t> flips;
        if (rng.chance(rate))
            flips.push_back(wp.wireBytes() / 2 * 8 + 4);
        std::vector<proto::Packet> out;
        std::optional<proto::Packet> ctrl;
        rx.onArrive(wp, flips, out, ctrl);
        delivered += static_cast<unsigned>(out.size());
        if (ctrl)
            tx.onControl(*ctrl);
    }
    void dllAcked(void *) override {}
    /** A lost packet shows as a shortfall in @ref delivered. */
    void dllFailed(void *) override {}

    proto::RetrySender tx;
    proto::RetryReceiver rx;
    double rate;
    Rng rng{7};
    unsigned delivered = 0;
};

void
dllErrorSweep()
{
    std::printf("--- Ablation D: DLL retry under injected link "
                "errors (10k packets) ---\n");
    std::printf("%12s %12s %12s %12s\n", "error rate", "retries",
                "delivered", "goodput");

    for (const double rate : {0.0, 0.001, 0.01, 0.05, 0.2}) {
        EventQueue eq;
        stats::Registry reg;
        LoopbackLink link(eq, reg, rate);
        constexpr unsigned total = 10000;

        for (unsigned i = 0; i < total; ++i) {
            link.tx.send(proto::Codec::makeWriteReq(
                             0, 1, (i * 64) & 0xffffff,
                             static_cast<std::uint8_t>(i & 0x3f), 64),
                         nullptr);
        }
        eq.run();
        const double sent = reg.scalar("tx.dllSent") +
                            reg.scalar("tx.dllRetries");
        std::printf("%12.3f %12.0f %12u %11.1f%%\n", rate,
                    reg.scalar("tx.dllRetries"), link.delivered,
                    100.0 * link.delivered / sent);
        std::fflush(stdout);
    }
    std::printf("\nEvery packet is eventually delivered exactly "
                "once; goodput degrades by the\nretransmission "
                "overhead (the CRC + NACK path of Section "
                "III-B).\n");
}

} // namespace

int
main()
{
    std::printf("=== Design-choice ablations ===\n\n");
    bufferSweep();
    mshrSweep();
    forwardLatencySweep();
    dllErrorSweep();
    return 0;
}
