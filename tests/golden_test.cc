/** @file Golden stats: one small scenario per subsystem (each IDC
 * fabric, each DRAM family, BER and stuck-link faults, forwarded and
 * pooled rack, open- and closed-loop serving, the chaos serving
 * cell, the host-CPU baseline on a batch and a serving workload, the
 * ring and torus topologies, interrupt polling, FCFS scheduling, the
 * direct inter-host fabric, the degraded-link fault model, the
 * hierarchical barrier, Alg. 1's mapping, ALERT_N over every DIMM,
 * the three broadcast kernels and hedged embedding gathers), each
 * pinned to its checked-in default stats JSON under tests/golden/. A
 * change that moves any simulated result shows up as a golden diff;
 * scripts/regen_golden.sh rewrites the files.
 *
 * The replay test checks provenance: the config block of a dump,
 * parsed back through SystemConfig::fromString and re-run with the
 * same workload, must reproduce the dump byte for byte.
 *
 * With DIMMLINK_GOLDEN_WRITE=<dir> set, the golden test writes each
 * scenario's dump to <dir>/<name>.json instead of comparing. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats_json.hh"
#include "dram/address_map.hh"
#include "system/host_runner.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace {

struct Scenario
{
    const char *name;
    /** A system preset, or a config file under configs/. */
    const char *base;
    std::vector<std::string> overrides;
    const char *workload;
    std::uint64_t scale = 1;
    unsigned rounds = 1;
    /** Run on the host-CPU baseline (HostRunner) instead of the NMP
     * system. */
    bool host = false;
    /** Run the kernel's broadcast formulation (Fig. 12 mode). */
    bool broadcast = false;
};

void
PrintTo(const Scenario &s, std::ostream *os)
{
    *os << s.name;
}

/** The two-host chaos cell of scripts/ci.sh: host 1's rack port dies
 * mid-run on the forwarded route, here with every reliability knob
 * armed. */
const std::vector<std::string> chaosOverrides = {
    "rack.idcMode=forwarded", "rack.hostDownId=1",
    "rack.hostDownAtPs=500000000", "rack.hostDownForPs=60000000",
    "link.retryTimeoutPs=40000000", "serve.requests=4096",
    "serve.latBuckets=512", "serve.deadlineUs=25", "serve.maxRetries=3",
    "serve.backoffUs=5", "serve.hedgeAfterUs=10", "serve.maxInflight=128",
};

/** The 1->2 bridge link of a 4-DIMM HalfRing dead for the whole run:
 * the retry budget exhausts and transfers fail over to the host. */
const std::vector<std::string> stuckOverrides = {
    "link.topology=HalfRing", "faults.model=stuck", "faults.stuckAtPs=0",
    "faults.stuckForPs=400000000000000", "faults.stuckPeriodPs=0",
    "faults.linkFilter=link1to2", "faults.seed=7",
    "faults.onExhausted=failover",
};

/** The same dead link under the drop policy: exhausted transfers
 * complete unsent and a host-forwarded note resyncs the stream. */
const std::vector<std::string> stuckDropOverrides = [] {
    auto o = stuckOverrides;
    o.back() = "faults.onExhausted=drop";
    return o;
}();

const std::vector<Scenario> &
scenarios()
{
    static const std::vector<Scenario> all = {
        {"fabric_dimmlink", "8D-4C", {}, "pagerank", 10},
        {"fabric_mcn", "8D-4C", {"system.idcMethod=mcn"}, "pagerank", 10},
        {"fabric_aim", "8D-4C", {"system.idcMethod=aim"}, "pagerank", 10},
        {"fabric_abc", "8D-4C", {"system.idcMethod=abc"},
         "pagerank", 10},
        {"dram_ddr5", "8D-4C", {"system.dramPreset=DDR5_4800"},
         "bfs", 9},
        {"dram_lpddr5x", "8D-4C", {"system.dramPreset=LPDDR5X_8533"},
         "bfs", 9},
        {"dram_hbm2", "8D-4C", {"system.dramPreset=HBM2_2000"},
         "bfs", 9},
        {"fault_ber", "4D-2C",
         {"faults.model=ber", "faults.ber=2e-5", "faults.seed=7"},
         "bfs", 6, 2},
        {"fault_stuck_failover", "4D-2C", stuckOverrides, "bfs", 6},
        {"fault_stuck_drop", "4D-2C", stuckDropOverrides, "bfs", 6},
        {"rack_pooled", "rack_2host.json",
         {"serve.requests=1024", "serve.latBuckets=512"}, "kv"},
        {"rack_forwarded", "rack_2host.json",
         {"rack.idcMode=forwarded", "serve.requests=1024",
          "serve.latBuckets=512"},
         "kv"},
        {"kv_open", "4D-2C",
         {"serve.requests=512", "serve.keys=8192",
          "serve.latBuckets=512"},
         "kv"},
        {"kv_closed", "4D-2C",
         {"serve.mode=closed", "serve.requests=512", "serve.keys=8192",
          "serve.latBuckets=512"},
         "kv"},
        {"chaos_serving", "rack_2host.json", chaosOverrides, "kv"},
        // The denominator of Fig. 10: one of its batch cells, and
        // open-loop serving with no reliability knobs.
        {"host_pagerank", "8D-4C", {}, "pagerank", 10, 2, true},
        {"host_kv_open", "4D-2C",
         {"serve.requests=512", "serve.keys=8192",
          "serve.latBuckets=512"},
         "kv", 1, 1, true},
        // One cell per closed choice the default configs never take:
        // a cyclic and a wrapped-grid topology (Fig. 17), the ALERT_N
        // polling engine (Table III), in-order DRAM scheduling, and
        // the direct-attached inter-host fabric.
        {"topo_ring", "8D-4C", {"link.topology=ring"}, "pagerank", 10},
        {"topo_torus", "16D-8C", {"link.topology=torus"},
         "pagerank", 10},
        {"polling_itrpt", "8D-4C", {"system.pollingMode=P-P+Itrpt"},
         "pagerank", 10},
        {"dram_fcfs", "8D-4C", {"system.dramScheduler=FCFS"}, "bfs", 9},
        {"rack_direct", "rack_2host.json",
         {"rack.fabric=direct", "rack.idcMode=forwarded",
          "serve.requests=1024", "serve.latBuckets=512"},
         "kv"},
        // The faster grades of two families, the degraded-link fault
        // model, the hierarchical barrier under the tree-reduction
        // kernel (Fig. 14b) and Alg. 1's distance-aware mapping
        // (profile, MCMF placement, migration).
        {"dram_ddr4_3200", "8D-4C", {"system.dramPreset=DDR4_3200"},
         "bfs", 9},
        {"dram_ddr5_6400", "8D-4C", {"system.dramPreset=DDR5_6400"},
         "bfs", 9},
        {"fault_degrade", "4D-2C",
         {"faults.model=degrade", "faults.seed=7"}, "bfs", 6},
        {"sync_tspow", "8D-4C", {}, "tspow", 6},
        {"dlopt_bfs", "16D-8C", {"system.distanceAwareMapping=true"},
         "bfs", 10},
        // ALERT_N over every DIMM of a channel (several targets per
        // interrupt scan), and the broadcast kernel of Fig. 12 (group
        // broadcast on the bridges plus the inter-group host leg).
        {"polling_base_itrpt", "8D-4C",
         {"system.pollingMode=Base+Itrpt"}, "pagerank", 10},
        {"broadcast_pagerank", "8D-4C", {}, "pagerank", 10, 1, false,
         true},
        // The other two broadcast kernels of Fig. 12, and hedged
        // embedding gathers (the replica table of the serving path).
        {"broadcast_sssp", "8D-4C", {}, "sssp", 10, 1, false, true},
        {"broadcast_spmv", "8D-4C", {}, "spmv", 10, 1, false, true},
        {"embed_hedged", "4D-2C",
         {"serve.requests=512", "serve.keys=8192",
          "serve.latBuckets=512", "serve.hedgeAfterUs=0.3"},
         "embed"},
    };
    return all;
}

SystemConfig
configOf(const Scenario &s)
{
    const std::string base = s.base;
    SystemConfig cfg =
        base.find(".json") == std::string::npos
            ? SystemConfig::preset(base)
            : SystemConfig::fromFile(std::string(DIMMLINK_SOURCE_DIR) +
                                     "/configs/" + base);
    for (const std::string &o : s.overrides)
        cfg.applyOverride(o);
    return cfg;
}

/** Run @p s's workload on @p cfg, as example_simulate does (or as
 * its --cpu baseline does), and return the default stats JSON
 * (config block included). */
std::string
runDump(const Scenario &s, const SystemConfig &cfg)
{
    workloads::WorkloadParams p;
    p.numThreads = s.host ? cfg.host.numCores
                          : cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = s.scale;
    p.rounds = s.rounds;
    p.broadcastMode = s.broadcast;
    p.serve = cfg.serve;
    std::ostringstream os;
    if (s.host) {
        HostRunner host(cfg);
        const dram::GlobalAddressMap gmap(cfg.numDimms,
                                          cfg.dimm.capacityBytes);
        auto wl = workloads::makeWorkload(s.workload, p, gmap);
        EXPECT_TRUE(host.run(*wl).verified) << s.name;
        stats::dumpJson(host.stats(), os, /*include_empty=*/false, &cfg);
        return os.str();
    }
    System sys(cfg);
    auto wl = workloads::makeWorkload(s.workload, p, sys.addressMap());
    Runner runner(sys, *wl);
    EXPECT_TRUE(runner.run().verified) << s.name;
    stats::dumpJson(sys.stats(), os, /*include_empty=*/false, &cfg);
    return os.str();
}

/** The flat JSON object of @p dump's "config" block, which dumpJson
 * writes on one line followed by a comma. */
std::string
configBlock(const std::string &dump)
{
    const std::string tag = "\n  \"config\": ";
    const std::size_t begin = dump.find(tag);
    if (begin == std::string::npos)
        return {};
    const std::size_t first = begin + tag.size();
    const std::size_t end = dump.find(",\n", first);
    return dump.substr(first, end - first);
}

std::string
goldenPath(const std::string &dir, const Scenario &s)
{
    return dir + "/" + s.name + ".json";
}

class GoldenStats : public testing::TestWithParam<Scenario>
{
};

TEST_P(GoldenStats, MatchesCheckedInDump)
{
    const Scenario &s = GetParam();
    const std::string dump = runDump(s, configOf(s));
    if (const char *dir = std::getenv("DIMMLINK_GOLDEN_WRITE")) {
        std::ofstream out(goldenPath(dir, s), std::ios::binary);
        ASSERT_TRUE(out) << goldenPath(dir, s);
        out << dump;
        return;
    }
    const std::string path = goldenPath(
        std::string(DIMMLINK_SOURCE_DIR) + "/tests/golden", s);
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " (scripts/regen_golden.sh writes it)";
    std::ostringstream golden;
    golden << in.rdbuf();
    // Compare whole strings, but report only whether they differ: a
    // dump is tens of kilobytes.
    EXPECT_TRUE(dump == golden.str())
        << s.name << ": stats differ from " << path
        << "; if the change is intended, run scripts/regen_golden.sh "
           "and review the diff";
}

TEST_P(GoldenStats, ReplaysFromItsOwnConfigBlock)
{
    const Scenario &s = GetParam();
    const std::string dump = runDump(s, configOf(s));
    const std::string block = configBlock(dump);
    ASSERT_FALSE(block.empty()) << s.name << ": no config block";
    const SystemConfig replayed =
        SystemConfig::fromString(block, std::string(s.name) + " dump");
    EXPECT_TRUE(runDump(s, replayed) == dump)
        << s.name << ": re-running from the dump's config block gave "
           "different stats";
}

INSTANTIATE_TEST_SUITE_P(
    Golden, GoldenStats, testing::ValuesIn(scenarios()),
    [](const testing::TestParamInfo<Scenario> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace dimmlink
