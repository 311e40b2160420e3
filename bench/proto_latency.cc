/**
 * @file
 * Section V-A reproduction: the FPGA-prototype packet-path
 * observations. The prototype packetizes a memory write in ~1.2 us at
 * 100 MHz with an HLS CRC dominating; without CRC, generation and
 * decoding finish in 18 cycles. We print the same quantities from
 * the functional NW-interface path: control-FSM cycles, CRC cycles,
 * and the wall-clock equivalents at 100 MHz (FPGA) and 2 GHz (ASIC
 * buffer chip).
 */

#include <cstdio>

#include "bench_util.hh"
#include "proto/codec.hh"
#include "proto/packet.hh"

using namespace dimmlink;
using namespace dimmlink::proto;

int
main()
{
    std::printf("=== Section V-A: prototype packet-path latency ===\n");
    std::printf("(control FSM: %u cycles; pipelined CRC: %u "
                "cycles/flit)\n\n",
                Codec::controlCycles, Codec::crcCyclesPerFlit);
    std::printf("%-22s %8s %10s %14s %14s\n", "packet", "flits",
                "cycles", "@100MHz(ns)", "@2GHz(ns)");

    const struct
    {
        const char *name;
        unsigned payload;
    } cases[] = {
        {"read request", 0},
        {"64B write", 64},
        {"256B write (max)", 256},
    };

    for (const auto &c : cases) {
        const Packet p =
            Codec::makeWriteReq(0, 1, 0x1000, 0, c.payload);
        const unsigned cycles = Codec::packetizeCycles(p.numFlits());
        std::printf("%-22s %8u %10u %14.1f %14.1f\n", c.name,
                    p.numFlits(), cycles, cycles * 10.0,
                    cycles * 0.5);
    }

    // Functional round-trip cost in host nanoseconds (the software
    // model itself), for reference.
    const Packet big = Codec::makeWriteReq(2, 5, 0xbeef, 3, 256);
    const benchutil::WallTimer timer;
    constexpr int iters = 100000;
    std::size_t sink = 0;
    for (int i = 0; i < iters; ++i) {
        const auto wire = encode(big);
        Packet out;
        if (!decode(wire, out))
            return 1;
        sink += out.payloadBytes;
    }
    const double ns = timer.elapsedNs() / iters;
    std::printf("\nsoftware encode+decode of a max packet: %.0f ns "
                "(checksum %zu)\n", ns, sink);
    std::printf("\nPaper observation: ~1.2 us/packet on the 100 MHz "
                "FPGA (HLS CRC-bound);\n18-cycle gen/decode without "
                "CRC -- matching the control-FSM constant above.\n");
    return 0;
}
