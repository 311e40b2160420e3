/**
 * @file
 * Microworkload ablation: STREAM (all-local, bandwidth-bound) and
 * GUPS (all-remote, fine-grained random updates) across the four IDC
 * fabrics. STREAM bounds what the local substrate delivers when IDC
 * plays no role; GUPS is the worst case that separates the fabrics
 * the most.
 */

#include "bench_util.hh"

using namespace benchutil;

int
main()
{
    const struct
    {
        const char *label;
        IdcMethod method;
    } variants[] = {
        {"MCN", IdcMethod::CpuForwarding},
        {"AIM", IdcMethod::DedicatedBus},
        {"ABC-DIMM", IdcMethod::ChannelBroadcast},
        {"DIMM-Link", IdcMethod::DimmLink},
    };

    std::printf("=== Microworkload ablation (16D-8C) ===\n\n");

    // STREAM: fabric-independent by construction.
    std::printf("STREAM triad (all-local):\n");
    std::printf("%-11s %12s %14s\n", "fabric", "time", "agg. BW");
    for (const auto &v : variants) {
        SystemConfig cfg = fabricConfig("16D-8C", v.method);
        System sys(cfg);
        workloads::WorkloadParams p = nmpParams(cfg, "stream");
        p.scale = 3;
        auto wl = workloads::makeWorkload("stream", p,
                                          sys.addressMap());
        Runner runner(sys, *wl);
        const RunResult r = runner.run();
        const double gbps =
            (r.localBytes + r.linkBytes + r.hostBytes) /
            (static_cast<double>(r.kernelTicks) / tickPerS) / 1e9;
        std::printf("%-11s %9.3f ms %11.1f GB/s%s\n", v.label,
                    r.kernelTicks / 1e9, gbps,
                    r.verified ? "" : "  (VERIFY FAILED)");
        std::fflush(stdout);
    }

    // GUPS: the fabric is everything.
    std::printf("\nGUPS random updates (almost all-remote):\n");
    std::printf("%-11s %12s %14s %10s\n", "fabric", "time",
                "updates/s", "vs MCN");
    double mcn_time = 0;
    for (const auto &v : variants) {
        SystemConfig cfg = fabricConfig("16D-8C", v.method);
        System sys(cfg);
        workloads::WorkloadParams p = nmpParams(cfg, "gups");
        p.scale = 2;
        auto wl = workloads::makeWorkload("gups", p,
                                          sys.addressMap());
        Runner runner(sys, *wl);
        const RunResult r = runner.run();
        const double updates = 64.0 * (2048ull << 2);
        const double ups =
            updates /
            (static_cast<double>(r.kernelTicks) / tickPerS);
        if (mcn_time == 0)
            mcn_time = static_cast<double>(r.kernelTicks);
        std::printf("%-11s %9.3f ms %11.2f M/s %9.2fx%s\n", v.label,
                    r.kernelTicks / 1e9, ups / 1e6,
                    mcn_time / static_cast<double>(r.kernelTicks),
                    r.verified ? "" : "  (VERIFY FAILED)");
        std::fflush(stdout);
    }
    return 0;
}
