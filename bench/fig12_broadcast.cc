/**
 * @file
 * Figure 12 reproduction: broadcast performance. PR, SSSP and SpMV
 * in their broadcast formulations on MCN-BC, ABC-DIMM, AIM-BC and
 * DIMM-Link, for 2-DPC and 3-DPC systems.
 *
 * Expected shape: AIM-BC > DIMM-Link > ABC-DIMM > MCN-BC, with
 * ABC-DIMM only modestly above MCN-BC at practical DPC
 * (DIMM-Link ~2.6x MCN-BC and ~1.8x ABC-DIMM in the paper).
 */

#include "bench_util.hh"

using namespace benchutil;

int
main()
{
    ScopedWallReport wall("fig12_broadcast");
    struct SystemShape
    {
        const char *label;
        unsigned dimms;
        unsigned channels;
    };
    // 2 DIMMs/channel and 3 DIMMs/channel shapes (8 DIMMs total,
    // and a 12-DIMM 3DPC variant).
    const SystemShape shapes[] = {{"8D 2DPC", 8, 4},
                                  {"12D 3DPC", 12, 4}};

    const struct
    {
        const char *label;
        IdcMethod method;
    } variants[] = {
        {"MCN-BC", IdcMethod::CpuForwarding},
        {"ABC-DIMM", IdcMethod::ChannelBroadcast},
        {"AIM-BC", IdcMethod::DedicatedBus},
        {"DIMM-Link", IdcMethod::DimmLink},
    };

    std::printf("=== Figure 12: broadcast performance (speedup "
                "over MCN-BC) ===\n\n");

    std::map<std::string, std::vector<double>> geo;

    for (const auto &shape : shapes) {
        std::printf("--- %s ---\n", shape.label);
        std::printf("%-9s", "workload");
        for (const auto &v : variants)
            std::printf(" %10s", v.label);
        std::printf("\n");
        printRule(9 + 4 * 11);

        for (const auto &wl : workloads::broadcastWorkloadNames()) {
            SystemConfig base;
            base.numDimms = shape.dimms;
            base.numChannels = shape.channels;

            RunResult mcn;
            std::printf("%-9s", wl.c_str());
            for (const auto &v : variants) {
                SystemConfig cfg = base;
                cfg.idcMethod = v.method;
                cfg.pollingMode = v.method == IdcMethod::DimmLink
                                      ? PollingMode::Proxy
                                      : PollingMode::Baseline;
                cfg.syncScheme =
                    v.method == IdcMethod::DimmLink
                        ? SyncScheme::Hierarchical
                        : SyncScheme::Centralized;
                const RunResult r =
                    runNmp(cfg, wl, /*broadcast=*/true);
                if (v.method == IdcMethod::CpuForwarding)
                    mcn = r;
                const double sp = speedup(mcn, r);
                geo[v.label].push_back(sp);
                std::printf(" %9.2fx", sp);
                std::fflush(stdout);
            }
            std::printf("\n");
        }
        std::printf("\n");
    }

    std::printf("=== Geomean speedups over MCN-BC ===\n");
    for (const auto &v : variants)
        std::printf("  %-10s %6.2fx\n", v.label,
                    geomean(geo[v.label]));
    std::printf("\n  DIMM-Link vs MCN-BC   : %.2fx (paper: 2.58x)\n",
                geomean(geo["DIMM-Link"]));
    std::printf("  DIMM-Link vs ABC-DIMM : %.2fx (paper: 1.77x)\n",
                geomean(geo["DIMM-Link"]) /
                    geomean(geo["ABC-DIMM"]));
    return 0;
}
