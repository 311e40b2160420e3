/**
 * @file
 * A command-line driver over the full public API: pick a system
 * shape, fabric, polling/sync/topology/mapping options and a
 * workload, run it, and print every metric the library collects.
 *
 * The machine can come from three layered sources, later ones
 * overriding earlier ones:
 *
 *   1. --preset / --config FILE   (base configuration)
 *   2. convenience flags          (--fabric, --topology, ...)
 *   3. -p section.key=value       (Ramulator-style point overrides)
 *
 * Usage:
 *   example_simulate [options]
 *     --config FILE    flat JSON config (see configs/default.json)
 *     --preset 4D-2C|8D-4C|12D-6C|16D-8C      (default 8D-4C)
 *     -p section.key=value                    (repeatable override)
 *     --dump-config    print the resolved config JSON and exit
 *     --fabric   mcn|aim|abc|dimmlink         (default dimmlink)
 *     --workload bfs|hotspot|kmeans|nw|pagerank|sssp|spmv|tspow|...
 *     --scale    N                            (default 12)
 *     --rounds   N                            (default 4)
 *     --topology halfring|ring|mesh|torus
 *     --polling  base|base-itrpt|proxy|proxy-itrpt
 *     --sync     central|hier
 *     --mapping                               (enable Algorithm 1)
 *     --broadcast                             (broadcast-mode kernel)
 *     --linkgbps F
 *     --ber F          (shorthand for -p faults.model=ber
 *                       -p faults.ber=F; routes intra-group data
 *                       over the reliable DLL transport)
 *     --hosts N        (shorthand for -p rack.hosts=N: partition the
 *                       DL groups across N hosts pooling their
 *                       NMP-DIMMs over the inter-host fabric; see
 *                       docs/rack.md)
 *     --deadline-us F  (shorthand for -p serve.deadlineUs=F: abort
 *                       serving requests still in flight F us after
 *                       arrival; see docs/serving.md)
 *     --max-retries N  (shorthand for -p serve.maxRetries=N: budget
 *                       for backed-off retries of requests the
 *                       circuit breaker fails fast)
 *     --hedge-after-us F  (shorthand for -p serve.hedgeAfterUs=F:
 *                       duplicate a kv GET or an embed gather to its
 *                       replica when the primary has not answered
 *                       after F us)
 *     --rack-latency-ns N  (shorthand for -p rack.latencyPs=N000:
 *                       one-way CXL.mem latency of the rack fabric)
 *     --cpu                                   (run the host baseline)
 *     --json                                  (stats + config as JSON)
 *     --trace                                 (enable event tracing)
 *     --trace-out FILE       Chrome-trace JSON path (implies --trace;
 *                            default trace.json; open in Perfetto)
 *     --trace-categories S   comma list: dram,noc,dll,core,host,
 *                            counter (default all)
 *     --sample-interval-ps N periodic counter sampling every N ps
 *     --sample-out FILE      time-series CSV path (default
 *                            samples.csv)
 *
 * Observability summaries go to stderr so stdout (config + metrics +
 * stats JSON) is byte-identical whether or not a run was traced.
 */

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/stats_json.hh"
#include "obs/chrome_trace.hh"
#include "obs/sampler.hh"
#include "obs/tracer.hh"
#include "system/host_runner.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

using namespace dimmlink;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "error: %s\n(see the file header for "
                 "options)\n", msg);
    std::exit(2);
}

/** Parse @p text, the value of @p flag, as a decimal integer in
 * [0, @p max]; anything else (a sign, trailing junk, overflow) is a
 * usage error. */
std::uint64_t
parseCount(const std::string &flag, const std::string &text,
           std::uint64_t max)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v > max)
        usage((flag + " needs a non-negative integer (got '" + text +
               "')").c_str());
    return v;
}

std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string preset = "8D-4C";
    std::string config_file;
    std::string workload = "pagerank";
    std::uint64_t scale = 12;
    unsigned rounds = 4;
    bool broadcast = false, run_cpu = false, dump_json = false,
         dump_config = false;
    // Convenience flags and -p overrides, applied onto the base
    // config in command-line order.
    std::vector<std::string> overrides;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--preset")
            preset = next();
        else if (a == "--config")
            config_file = next();
        else if (a == "-p")
            overrides.push_back(next());
        else if (a == "--dump-config")
            dump_config = true;
        else if (a == "--fabric")
            overrides.push_back("system.idcMethod=" + next());
        else if (a == "--workload")
            workload = next();
        else if (a == "--scale")
            scale = parseCount(a, next(), UINT64_MAX);
        else if (a == "--rounds")
            rounds = static_cast<unsigned>(
                parseCount(a, next(), UINT_MAX));
        else if (a == "--qps")
            overrides.push_back("serve.offeredQps=" + next());
        else if (a == "--requests")
            overrides.push_back("serve.requests=" + next());
        else if (a == "--closed-loop")
            overrides.push_back("serve.mode=closed");
        else if (a == "--topology")
            overrides.push_back("link.topology=" + next());
        else if (a == "--polling")
            overrides.push_back("system.pollingMode=" + next());
        else if (a == "--sync")
            overrides.push_back("system.syncScheme=" + next());
        else if (a == "--mapping")
            overrides.push_back("system.distanceAwareMapping=true");
        else if (a == "--broadcast")
            broadcast = true;
        else if (a == "--linkgbps")
            overrides.push_back("link.linkGBps=" + next());
        else if (a == "--ber") {
            overrides.push_back("faults.model=ber");
            overrides.push_back("faults.ber=" + next());
        }
        else if (a == "--hosts")
            overrides.push_back("rack.hosts=" + next());
        else if (a == "--deadline-us")
            overrides.push_back("serve.deadlineUs=" + next());
        else if (a == "--max-retries")
            overrides.push_back("serve.maxRetries=" + next());
        else if (a == "--hedge-after-us")
            overrides.push_back("serve.hedgeAfterUs=" + next());
        else if (a == "--rack-latency-ns")
            overrides.push_back("rack.latencyPs=" + next() + "000");
        else if (a == "--trace")
            overrides.push_back("obs.trace=true");
        else if (a == "--trace-out") {
            overrides.push_back("obs.trace=true");
            overrides.push_back("obs.traceOut=" + next());
        }
        else if (a == "--trace-categories")
            overrides.push_back("obs.categories=" + next());
        else if (a == "--sample-interval-ps")
            overrides.push_back("obs.sampleIntervalPs=" + next());
        else if (a == "--sample-out")
            overrides.push_back("obs.sampleOut=" + next());
        else if (a == "--cpu")
            run_cpu = true;
        else if (a == "--json")
            dump_json = true;
        else
            usage(("unknown option " + a).c_str());
    }

    SystemConfig cfg = config_file.empty()
        ? SystemConfig::preset(preset)
        : SystemConfig::fromFile(config_file);
    for (const std::string &o : overrides)
        cfg.applyOverride(o);

    if (dump_config) {
        std::cout << cfg.describe();
        return 0;
    }

    const auto known = workloads::knownWorkloads();
    if (std::find(known.begin(), known.end(), workload) == known.end())
        usage(("unknown workload '" + workload + "' (registered: " +
               joined(known) + ")").c_str());

    cfg.print(std::cout);

    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = scale;
    p.rounds = rounds;
    p.broadcastMode = broadcast;
    p.serve = cfg.serve;
    auto wl = workloads::makeWorkload(workload, p, sys.addressMap());

    Runner runner(sys, *wl);
    const RunResult r = runner.run();

    std::printf("\n%s on %uD-%uC over %s:\n", workload.c_str(),
                cfg.numDimms, cfg.numChannels, toString(cfg.idcMethod));
    std::printf("  kernel time          : %10.3f ms\n",
                r.kernelTicks / 1e9);
    std::printf("  profiling time       : %10.3f ms\n",
                r.profilingTicks / 1e9);
    std::printf("  verified             : %s\n",
                r.verified ? "yes" : "NO");
    std::printf("  instructions         : %10llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("  non-overlapped IDC   : %9.1f %%\n",
                100 * r.idcStallRatio());
    std::printf("  traffic (MB)         : local %.2f  link %.2f  "
                "host %.2f  bus %.2f\n", r.localBytes / 1e6,
                r.linkBytes / 1e6, r.hostBytes / 1e6,
                r.busBytes / 1e6);
    std::printf("  memory-bus occupancy : %9.1f %%\n",
                100 * r.busOccupancy);
    std::printf("  energy (mJ)          : total %.3f  dram %.3f  "
                "idc %.3f  cores %.3f\n", r.energy.total() / 1e9,
                r.energy.dramPj / 1e9, r.energy.idc() / 1e9,
                r.energy.nmpCorePj / 1e9);

    {
        const auto &reg = sys.stats();
        const double nreq = reg.sumScalar("serve", "requests");
        if (nreq > 0) {
            auto sv = [&](const char *s) {
                return reg.sumScalar("serve", s);
            };
            std::printf("  serving              : %.0f requests  "
                        "offered %.3g qps  achieved %.3g qps\n",
                        nreq, sv("offeredQps"), sv("achievedQps"));
            std::printf("    latency (us)       : p50 %.2f  p95 %.2f  "
                        "p99 %.2f\n", sv("latencyP50Ps") / 1e6,
                        sv("latencyP95Ps") / 1e6,
                        sv("latencyP99Ps") / 1e6);
            if (cfg.serve.relEnabled()) {
                std::printf("    reliability        : goodput %.3g qps"
                            "  error rate %.4f\n", sv("goodputQps"),
                            sv("errorRate"));
                std::printf("      dropped          : deadline %.0f  "
                            "shed %.0f  failed %.0f\n",
                            sv("deadlineMisses"), sv("shedRequests"),
                            sv("failedRequests"));
                std::printf("      recovery         : retries %.0f  "
                            "fast-fails %.0f  hedges %.0f "
                            "(won %.0f)\n", sv("retries"),
                            sv("breakerFastFails"),
                            sv("hedgedRequests"), sv("hedgeWins"));
            }
        }
    }

    if (cfg.rackEnabled()) {
        const auto &reg = sys.stats();
        auto rk = [&](const char *s) {
            return reg.sumScalar("rack", s);
        };
        std::printf("  rack                 : %u hosts  %s fabric  "
                    "CXL %.0f ns  primary %s\n", cfg.rack.hosts,
                    cfg.rack.fabric.c_str(),
                    static_cast<double>(cfg.rack.latencyPs) / 1e3,
                    cfg.rack.idcMode.c_str());
        std::printf("    crossings          : forwarded %.0f "
                    "(%.2f MB)  pooled %.0f (%.2f MB)\n",
                    rk("crossings"), rk("forwardedBytes") / 1e6,
                    rk("pooledTransfers"), rk("pooledBytes") / 1e6);
        std::printf("    availability       : reroutes %.0f  "
                    "portDown %.0f  recovered %.0f\n",
                    rk("reroutes"), rk("portDownEvents"),
                    rk("portRecoveredEvents"));
        for (unsigned h = 0; h < cfg.rack.hosts; ++h) {
            const std::string pre = "host" + std::to_string(h) + ".";
            const double hreq =
                reg.sumScalar("serve", pre + "requests");
            if (hreq == 0)
                continue;
            std::printf("    host %u SLO         : %.0f requests  "
                        "p50 %.2f us  p99 %.2f us\n", h, hreq,
                        reg.scalar("serve." + pre + "latencyP50Ps") /
                            1e6,
                        reg.scalar("serve." + pre + "latencyP99Ps") /
                            1e6);
        }
    }

    if (cfg.faults.model != "none") {
        const auto &reg = sys.stats();
        auto dl = [&](const char *s) {
            return static_cast<unsigned long long>(
                reg.sumScalar("fabric.dl", s));
        };
        std::printf("  fault injection      : model %s  seed %llu\n",
                    cfg.faults.model.c_str(),
                    static_cast<unsigned long long>(cfg.faults.seed));
        std::printf("    DLL packets sent   : %10llu  (retries %llu, "
                    "failed transfers %llu)\n", dl("dllSent"),
                    dl("dllRetries"), dl("dllFailedTransfers"));
        std::printf("    corrupted images   : %10llu  (duplicates "
                    "filtered %llu, reordered %llu)\n",
                    dl("dllCorrupt"), dl("dllDuplicates"),
                    dl("dllOutOfOrder"));
    }

    if (run_cpu) {
        HostRunner host(cfg);
        workloads::WorkloadParams hp = p;
        hp.numThreads = cfg.host.numCores;
        dram::GlobalAddressMap gmap(cfg.numDimms,
                                    cfg.dimm.capacityBytes);
        auto host_wl =
            workloads::makeWorkload(workload, hp, gmap);
        const RunResult c = host.run(*host_wl);
        std::printf("\n  16-core CPU baseline : %10.3f ms "
                    "(NMP speedup %.2fx, verified: %s)\n",
                    c.kernelTicks / 1e9,
                    static_cast<double>(c.kernelTicks) /
                        static_cast<double>(r.kernelTicks),
                    c.verified ? "yes" : "NO");
    }

    if (obs::Tracer *tr = sys.tracer()) {
        std::ofstream out(cfg.obs.traceOut);
        if (!out)
            usage(("cannot open trace output file '" +
                   cfg.obs.traceOut + "'").c_str());
        obs::writeChromeTrace(*tr, out);
        std::fprintf(stderr,
                     "trace: %llu events across %zu tracks -> %s "
                     "(%llu dropped)\n",
                     static_cast<unsigned long long>(tr->recorded()),
                     tr->tracks().size(), cfg.obs.traceOut.c_str(),
                     static_cast<unsigned long long>(tr->dropped()));
    }
    if (obs::Sampler *sm = sys.sampler()) {
        const std::string csv_path = cfg.obs.sampleOut.empty()
                                         ? "samples.csv"
                                         : cfg.obs.sampleOut;
        std::ofstream out(csv_path);
        if (!out)
            usage(("cannot open sample output file '" + csv_path +
                   "'").c_str());
        sm->writeCsv(out);
        std::fprintf(stderr, "samples: %zu rows x %zu probes every "
                     "%llu ps -> %s\n", sm->rows().size(),
                     sm->probeNames().size(),
                     static_cast<unsigned long long>(sm->interval()),
                     csv_path.c_str());
    }

    if (dump_json)
        stats::dumpJson(sys.stats(), std::cout, false, &cfg);
    return r.verified ? 0 : 1;
}
