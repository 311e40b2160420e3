/**
 * @file
 * Fault-injection soak: sweep the link bit-error rate and report how
 * the DLL retry machinery absorbs it. For each BER the BFS kernel
 * runs on the single-group 4D-2C DIMM-Link system (all IDC traffic
 * stays on the bridge, so every injected corruption exercises the
 * NACK/timeout retransmission path) and the table shows the recovery
 * cost: corrupted packets, retransmissions, duplicate
 * suppressions, and the kernel-time slowdown relative to the
 * fault-free run.
 *
 * Expected shape: kernel-time slowdown grows steadily with BER — a
 * corrupted packet stalls its stream for a NACK round-trip (or a
 * full retry timeout when the header was unreadable), and on the
 * critical path of a BFS level that wait is large relative to packet
 * serialization. Failed transfers must stay 0 at every point — the
 * retry budget is sized so a soak at these rates never exhausts it.
 *
 * The second table holds one direction of the 1<->2 bridge link down
 * for the whole run — past the retry budget — and shows the recovery
 * layer instead: the link-health machine taking the link out of the
 * tables, exhausted transfers failing over to the host path, and the
 * degraded-mode cost (slowdown and achieved IDC bandwidth) on the
 * chain topology (which disconnects and must lean on the host) vs the
 * ring (which routes around over the surviving direction).
 */

#include "bench_util.hh"

using namespace benchutil;

int
main()
{
    const double bers[] = {0, 1e-6, 1e-5, 5e-5, 1e-4, 2e-4};

    std::printf("=== DLL fault-injection soak: BFS on 4D-2C vs link "
                "BER (faults.seed=7) ===\n\n");
    std::printf("%9s %9s %9s %9s %9s %9s %9s\n", "BER", "slowdown",
                "sent", "corrupt", "retries", "dups", "failed");
    printRule(9 + 6 * 10);

    double base_ticks = 0;
    for (const double ber : bers) {
        SystemConfig cfg = fabricConfig("4D-2C", IdcMethod::DimmLink);
        if (ber > 0) {
            cfg.faults.model = "ber";
            cfg.faults.ber = ber;
            cfg.faults.seed = 7;
        }

        System sys(cfg);
        auto wl = workloads::makeWorkload(
            "bfs", nmpParams(cfg, "bfs"), sys.addressMap());
        Runner runner(sys, *wl);
        const RunResult r = runner.run();
        if (!r.verified)
            std::fprintf(stderr, "WARNING: bfs did not verify at "
                         "BER %g\n", ber);
        if (ber == 0)
            base_ticks = static_cast<double>(r.kernelTicks);

        const auto &reg = sys.stats();
        std::printf("%9.0e %8.3fx %9.0f %9.0f %9.0f %9.0f %9.0f\n",
                    ber,
                    static_cast<double>(r.kernelTicks) / base_ticks,
                    reg.sumScalar("fabric.dl", "dllSent"),
                    reg.sumScalar("fabric.dl", "dllCorrupt"),
                    reg.sumScalar("fabric.dl", "dllRetries"),
                    reg.sumScalar("fabric.dl", "dllDuplicates"),
                    reg.sumScalar("fabric.dl", "dllFailedTransfers"));
        std::fflush(stdout);
    }

    std::printf("\nThe BER=0 row uses the fast flit-count path (no "
                "DLL packets); every other\nrow carries the same "
                "payload bytes through the reliable transport with "
                "CRC\nvalidation at the far end.\n");

    std::printf("\n=== Degraded mode: link 1->2 permanently stuck "
                "(BFS, faults.onExhausted=failover) ===\n\n");
    std::printf("%9s %9s %9s %9s %9s %9s %9s %11s\n", "topology",
                "slowdown", "failover", "reroutes", "downs", "suspect",
                "failed", "IDC GB/s");
    printRule(9 + 6 * 10 + 12);

    for (const Topology topo : {Topology::HalfRing, Topology::Ring}) {
        SystemConfig cfg = fabricConfig("4D-2C", IdcMethod::DimmLink);
        cfg.link.topology = topo;
        // Small problem: a dead link serializes every exhausted
        // transfer behind its full retry budget.
        workloads::WorkloadParams p = nmpParams(cfg, "bfs");
        p.scale = 8;
        p.rounds = 1;

        double healthy_ticks = 0;
        double ticks = 0, failover = 0, reroutes = 0, downs = 0,
               suspects = 0, failed = 0, idc_bytes = 0;
        for (const bool stuck : {false, true}) {
            if (stuck) {
                cfg.faults.model = "stuck";
                cfg.faults.stuckAtPs = 0;
                cfg.faults.stuckForPs = 400000000000000ull;
                cfg.faults.stuckPeriodPs = 0;
                cfg.faults.linkFilter = "link1to2";
                cfg.faults.seed = 7;
            }
            System sys(cfg);
            auto wl =
                workloads::makeWorkload("bfs", p, sys.addressMap());
            Runner runner(sys, *wl);
            const RunResult r = runner.run();
            if (!r.verified)
                std::fprintf(stderr, "WARNING: bfs did not verify "
                             "(stuck=%d)\n", stuck);
            if (!stuck) {
                healthy_ticks = static_cast<double>(r.kernelTicks);
                continue;
            }
            ticks = static_cast<double>(r.kernelTicks);
            const auto &reg = sys.stats();
            failover = reg.sumScalar("fabric.dl", "dllFailovers");
            reroutes = reg.sumScalar("fabric.dl", "hostReroutes");
            downs = reg.sumScalar("fabric.dl", "linkDownEvents");
            suspects =
                reg.sumScalar("fabric.dl", "linkSuspectEvents");
            failed =
                reg.sumScalar("fabric.dl", "dllFailedTransfers");
            idc_bytes = r.linkBytes + r.hostBytes;
        }
        std::printf("%9s %8.3fx %9.0f %9.0f %9.0f %9.0f %9.0f %11.3f\n",
                    toString(topo), ticks / healthy_ticks, failover,
                    reroutes, downs, suspects, failed,
                    idc_bytes * 1e12 / ticks / 1e9);
        std::fflush(stdout);
    }

    std::printf("\nEvery transfer still completes and verifies: "
                "exhausted sends re-enter through\nthe host forwarder "
                "and unreachable destinations are rerouted at submit "
                "time,\nso a dead link degrades bandwidth instead of "
                "losing data.\n");
    return 0;
}
