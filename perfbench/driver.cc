/**
 * @file
 * The whole-system benchmark driver (see README.md beside this file).
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--git-sha SHA] [--force-fail]
 *
 * Runs one of three whole-system workloads on the classic event
 * kernel, single-threaded, through the library's public API only.
 * Untraced repeats of one closed-loop batch run fill --seconds; with
 * --trace 0 they give the end-to-end metrics (host cost and simulated
 * outcome). With --trace 1 the driver adds one run whose workload
 * hooks are timed, one run with the event tracer on, and standalone
 * DRAM-controller and NoC probes, and prints the per-layer metrics.
 *
 * Every run must verify, and every run of the invocation -- repeats,
 * the hooked run and the traced run -- must produce the same stats
 * digest and simulated metrics, or the result is marked incorrect.
 *
 * The last stdout line is the result object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * preceded by a {"report": ...} line with provenance, per-metric
 * quartiles and the digest. --force-fail makes every verification
 * fail (used by the benchmark's own tests).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc_count.hh"
#include "common/rng.hh"
#include "common/stats_json.hh"
#include "dram/dram_controller.hh"
#include "noc/network.hh"
#include "obs/tracer.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

using namespace dimmlink;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

// --------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------

struct Spec
{
    const char *name;
    const char *preset;
    IdcMethod fabric;
    const char *kernel;
    std::uint64_t scale;
    unsigned rounds;
};

const Spec specs[] = {
    {"pagerank-dl16", "16D-8C", IdcMethod::DimmLink, "pagerank", 15, 2},
    {"bfs-mcn8", "8D-4C", IdcMethod::CpuForwarding, "bfs", 16, 1},
    {"kv-dl8-ber", "8D-4C", IdcMethod::DimmLink, "kv", 1, 1},
};

bool
isServing(const Spec &s)
{
    return std::strcmp(s.kernel, "kv") == 0;
}

SystemConfig
makeConfig(const Spec &s, std::uint64_t seed)
{
    SystemConfig cfg = SystemConfig::preset(s.preset);
    cfg.idcMethod = s.fabric;
    // As in the paper (and fabricConfig in bench/bench_util.hh):
    // DIMM-Link pairs with the polling proxy and hierarchical sync,
    // the baselines with per-DIMM polling and a central master.
    const bool dl = s.fabric == IdcMethod::DimmLink;
    cfg.pollingMode = dl ? PollingMode::Proxy : PollingMode::Baseline;
    cfg.syncScheme = dl ? SyncScheme::Hierarchical : SyncScheme::Centralized;
    cfg.serve.seed = seed;
    cfg.faults.seed = seed;
    if (isServing(s)) {
        cfg.serve.mode = "open";
        cfg.serve.offeredQps = 2e7;
        cfg.serve.requests = 200000;
        cfg.serve.getFraction = 0.5;
        cfg.faults.model = "ber";
        cfg.faults.ber = 1e-6;
    }
    cfg.validate();
    return cfg;
}

workloads::WorkloadParams
makeParams(const Spec &s, const SystemConfig &cfg, std::uint64_t seed)
{
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = s.scale;
    p.rounds = s.rounds;
    p.seed = seed;
    p.serve = cfg.serve;
    return p;
}

// --------------------------------------------------------------------
// Timed workload hooks (the hooked run)
// --------------------------------------------------------------------

/** Host time and allocations spent inside the workload's hooks. */
struct HookCost
{
    std::uint64_t ops = 0;
    double nextS = 0;
    double verifyS = 0;
    std::uint64_t nextAllocs = 0;
    /** Allocations in program() and verify(). */
    std::uint64_t otherAllocs = 0;
};

class TimedProgram : public ThreadProgram
{
  public:
    TimedProgram(std::unique_ptr<ThreadProgram> inner, HookCost &cost)
        : inner(std::move(inner)), cost(cost)
    {}

    Op
    next() override
    {
        const std::uint64_t a0 = perfbench::allocCount();
        const auto t0 = Clock::now();
        Op op = inner->next();
        cost.nextS += secondsSince(t0);
        cost.nextAllocs += perfbench::allocCount() - a0;
        ++cost.ops;
        return op;
    }

  private:
    std::unique_ptr<ThreadProgram> inner;
    HookCost &cost;
};

/** Decorates a workload: times its hooks, optionally fails verify(). */
class TimedWorkload : public workloads::Workload
{
  public:
    TimedWorkload(workloads::Workload &inner,
                  const dram::GlobalAddressMap &gmap, HookCost &cost,
                  bool fail_verify)
        : Workload(inner.params(), gmap), inner(inner), cost(cost),
          failVerify(fail_verify)
    {}

    std::string name() const override { return inner.name(); }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        const std::uint64_t a0 = perfbench::allocCount();
        auto prog = std::make_unique<TimedProgram>(inner.program(tid), cost);
        cost.otherAllocs += perfbench::allocCount() - a0;
        return prog;
    }

    void reset() override { inner.reset(); }

    bool
    verify() const override
    {
        const std::uint64_t a0 = perfbench::allocCount();
        const auto t0 = Clock::now();
        const bool ok = inner.verify();
        cost.verifyS += secondsSince(t0);
        cost.otherAllocs += perfbench::allocCount() - a0;
        return ok && !failVerify;
    }

    std::uint64_t
    approxInstructions() const override
    {
        return inner.approxInstructions();
    }

    std::uint64_t
    approxMemRefs() const override
    {
        return inner.approxMemRefs();
    }

  private:
    workloads::Workload &inner;
    HookCost &cost;
    bool failVerify;
};

// --------------------------------------------------------------------
// One run
// --------------------------------------------------------------------

enum class Mode { Plain, Hooked, Traced };

using Values = std::map<std::string, double>;

/** What building the machine and generating the workload cost. */
struct SetupCost
{
    double buildS = 0;
    double genS = 0;
    std::uint64_t buildAllocs = 0;
};

struct Run
{
    SetupCost setup;
    double wallS = 0;
    std::uint64_t runAllocs = 0;
    std::uint64_t events = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    /** Simulated outcome: must match across every run of a seed. */
    Values sim;
    /** Per-layer metrics read from the stats registry. */
    Values layer;
    /** Tracer totals (traced run only). */
    Values trace;
    HookCost hooks;
};

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Sum scalar @p stat over groups whose name satisfies @p keep. */
double
sumWhere(const stats::Registry &reg,
         const std::function<bool(const std::string &)> &keep,
         const std::string &stat, unsigned *groups = nullptr)
{
    double sum = 0;
    reg.forEachGroup([&](const stats::Group &g) {
        const auto it = g.scalars().find(stat);
        if (it == g.scalars().end() || !keep(g.name()))
            return;
        sum += it->second.value();
        if (groups)
            ++*groups;
    });
    return sum;
}

/** Mean of distribution @p stat merged over groups matching @p keep. */
double
meanWhere(const stats::Registry &reg,
          const std::function<bool(const std::string &)> &keep,
          const std::string &stat)
{
    stats::Distribution merged;
    reg.forEachGroup([&](const stats::Group &g) {
        const auto it = g.distributions().find(stat);
        if (it != g.distributions().end() && keep(g.name()))
            merged.merge(it->second);
    });
    return merged.mean();
}

std::function<bool(const std::string &)>
prefix(const std::string &p)
{
    return [p](const std::string &n) { return n.rfind(p, 0) == 0; };
}

Values
simMetrics(const Spec &spec, System &sys, const RunResult &r,
           std::uint64_t completed)
{
    const auto &reg = sys.stats();
    const double us = static_cast<double>(r.kernelTicks) / tickPerUs;
    Values v;
    v["sim_time_us"] = us;
    v["sim_energy_uj"] = r.energy.total() / 1e6;
    if (isServing(spec)) {
        v["sim_p50_us"] = reg.scalar("serve.latencyP50Ps") / tickPerUs;
        v["sim_p99_us"] = reg.scalar("serve.latencyP99Ps") / tickPerUs;
        v["sim_goodput_mqps"] = static_cast<double>(completed) / us;
    } else {
        // A batch run is one closed-loop job: its makespan is its only
        // latency sample, and it completes one job per makespan.
        v["sim_p50_us"] = us;
        v["sim_p99_us"] = us;
        v["sim_goodput_mqps"] = 1.0 / us;
    }
    return v;
}

Values
layerMetrics(System &sys, const RunResult &r)
{
    const auto &reg = sys.stats();
    const double ticks = static_cast<double>(r.kernelTicks);
    Values v;

    const double reads = reg.sumScalar("dimm", "reads");
    const double writes = reg.sumScalar("dimm", "writes");
    v["dram.reqs"] = reads + writes;
    v["dram.write_ratio"] = ratio(writes, reads + writes);
    v["dram.row_hit_ratio"] =
        reads + writes > 0
            ? 1 - reg.sumScalar("dimm", "activates") / (reads + writes)
            : 0;
    v["dram.access_latency_ns"] =
        meanWhere(reg, prefix("dimm"), "accessLatencyPs") / tickPerNs;

    unsigned links = 0;
    const auto is_link = [](const std::string &n) {
        return n.rfind("fabric.", 0) == 0 &&
               n.find(".link") != std::string::npos;
    };
    const double busy = sumWhere(reg, is_link, "busyPs", &links);
    const double flits = sumWhere(reg, is_link, "flits");
    v["noc.flits"] = flits;
    v["noc.link_busy_share"] = ratio(busy, links * ticks);
    // Flits per link traversal: the message size the NoC probe uses.
    v["noc.flits_per_msg"] = ratio(flits, sumWhere(reg, is_link, "messages"));

    const double sent = reg.sumScalar("fabric", "dllSent");
    v["dll.sent"] = sent;
    v["dll.retry_ratio"] = ratio(reg.sumScalar("fabric", "dllRetries"), sent);
    v["dll.corrupt"] = reg.sumScalar("fabric", "dllCorrupt");

    // The fabric's own group is "fabric.<kind>"; deeper groups belong
    // to its NoC and DLL controllers.
    const auto is_fabric = [](const std::string &n) {
        return n.rfind("fabric.", 0) == 0 &&
               n.find('.', 7) == std::string::npos;
    };
    const double via_link = sumWhere(reg, is_fabric, "bytesViaLink");
    const double via_host = sumWhere(reg, is_fabric, "bytesViaHost");
    v["fabric.transactions"] = sumWhere(reg, is_fabric, "transactions");
    v["fabric.link_byte_share"] = ratio(via_link, via_link + via_host);
    v["fabric.latency_ns"] =
        meanWhere(reg, is_fabric, "latencyPs") / tickPerNs;

    const double polls = reg.sumScalar("host.polling", "polls");
    v["host.forwards"] = reg.sumScalar("host.forwarder", "forwards");
    v["host.forward_latency_ns"] =
        meanWhere(reg, prefix("host.forwarder"), "latencyPs") / tickPerNs;
    v["host.polls"] = polls;
    v["host.idle_poll_ratio"] =
        ratio(reg.sumScalar("host.polling", "idlePolls"), polls);
    v["host.discovery_ns"] =
        meanWhere(reg, prefix("host.polling"), "discoveryPs") / tickPerNs;
    v["host.bus_occupancy"] = r.busOccupancy;

    v["dimm.instructions"] = static_cast<double>(r.instructions);
    v["dimm.remote_ref_ratio"] =
        ratio(reg.sumScalar("dimm", "remoteRefs"),
              reg.sumScalar("dimm", "memRefs"));
    v["dimm.stall_remote_share"] = r.idcStallRatio();
    v["dimm.barrier_share"] = ratio(r.barrierPs, r.coreTimePs);

    v["sync.episodes"] = reg.sumScalar("sync", "episodes");
    v["sync.barrier_ns"] =
        meanWhere(reg, prefix("sync"), "barrierPs") / tickPerNs;
    return v;
}

const unsigned traceCats[] = {obs::CatDram, obs::CatNoc, obs::CatDll,
                              obs::CatCore, obs::CatHost};

/** Span counts and summed durations per tracer category. */
Values
traceMetrics(const obs::Tracer &tr)
{
    std::map<unsigned, std::pair<double, double>> spans; // count, ps
    std::unordered_map<std::uint64_t, std::pair<Tick, unsigned>> open;
    const auto &tracks = tr.tracks();
    // Pass 1: complete spans, and the begin of every async span. An
    // async span may end on another track than it began on.
    for (std::uint32_t t = 0; t < tracks.size(); ++t) {
        const unsigned cat = tracks[t].category;
        tr.forEachRecord(t, [&](const obs::Record &r) {
            if (r.kind == obs::RecordKind::Complete) {
                spans[cat].first += 1;
                spans[cat].second += static_cast<double>(r.arg);
            } else if (r.kind == obs::RecordKind::AsyncBegin) {
                open[r.arg] = {r.tick, cat};
            }
        });
    }
    for (std::uint32_t t = 0; t < tracks.size(); ++t)
        tr.forEachRecord(t, [&](const obs::Record &r) {
            if (r.kind != obs::RecordKind::AsyncEnd)
                return;
            const auto it = open.find(r.arg);
            if (it == open.end())
                return;
            spans[it->second.second].first += 1;
            spans[it->second.second].second +=
                static_cast<double>(r.tick - it->second.first);
        });

    Values v;
    v["obs.records"] = static_cast<double>(tr.recorded());
    v["obs.dropped"] = static_cast<double>(tr.dropped());
    for (const unsigned cat : traceCats) {
        const std::string name = obs::categoryName(cat);
        v["obs." + name + ".spans"] = spans[cat].first;
        v["obs." + name + ".span_us"] = spans[cat].second / tickPerUs;
    }
    return v;
}

/** A built machine and its workload (destroyed workload first). */
struct Setup
{
    std::unique_ptr<System> sys;
    std::unique_ptr<workloads::Workload> wl;
    SetupCost cost;
};

Setup
setUp(const Spec &spec, const SystemConfig &cfg, std::uint64_t seed)
{
    Setup s;
    const std::uint64_t a0 = perfbench::allocCount();
    const auto t0 = Clock::now();
    s.sys = std::make_unique<System>(cfg);
    s.cost.buildS = secondsSince(t0);
    s.cost.buildAllocs = perfbench::allocCount() - a0;

    const auto t1 = Clock::now();
    s.wl = workloads::makeWorkload(spec.kernel, makeParams(spec, cfg, seed),
                                   s.sys->addressMap());
    s.cost.genS = secondsSince(t1);
    return s;
}

Run
runOnce(const Spec &spec, std::uint64_t seed, Mode mode, bool force_fail)
{
    SystemConfig cfg = makeConfig(spec, seed);
    if (mode == Mode::Traced) {
        cfg.obs.trace = true;
        // Rings grow on demand, so a capacity no run reaches keeps
        // every record (obs.dropped = 0) without preallocating.
        cfg.obs.ringCapacity = 1u << 30;
    }

    Run run;
    Setup setup = setUp(spec, cfg, seed);
    run.setup = setup.cost;
    System &sys = *setup.sys;
    workloads::Workload &wl = *setup.wl;

    std::unique_ptr<TimedWorkload> timed;
    if (mode == Mode::Hooked || force_fail)
        timed = std::make_unique<TimedWorkload>(wl, sys.addressMap(),
                                                run.hooks, force_fail);
    workloads::Workload &driven = timed ? *timed : wl;

    Runner runner(sys, driven);
    const std::uint64_t ev0 = sys.queue().executed();
    const std::uint64_t a1 = perfbench::allocCount();
    const auto t2 = Clock::now();
    const RunResult r = runner.run();
    run.wallS = secondsSince(t2);
    run.runAllocs = perfbench::allocCount() - a1;
    run.events = sys.queue().executed() - ev0;

    const auto &reg = sys.stats();
    std::uint64_t completed = 0;
    if (isServing(spec)) {
        // One attempt per offered request; a request without a
        // successful disposition, or any request of a run that does
        // not verify, is a failure.
        run.attempted = cfg.serve.requests;
        completed = reg.hasScalar("serve.requests")
                        ? static_cast<std::uint64_t>(
                              reg.scalar("serve.requests"))
                        : 0;
        run.failed = r.verified ? run.attempted - std::min(completed,
                                                           run.attempted)
                                : run.attempted;
    } else {
        run.attempted = 1;
        run.failed = r.verified ? 0 : 1;
    }

    std::ostringstream dump;
    stats::dumpJson(reg, dump, false, &sys.config());
    run.digest = fnv1a(dump.str());
    run.sim = simMetrics(spec, sys, r, completed);
    run.layer = layerMetrics(sys, r);
    if (sys.tracer())
        run.trace = traceMetrics(*sys.tracer());
    return run;
}

// --------------------------------------------------------------------
// Standalone layer probes
// --------------------------------------------------------------------

/** Host ns per request of a lone DRAM controller fed @p write_ratio. */
double
dramProbe(const SystemConfig &cfg, double write_ratio, std::uint64_t seed)
{
    constexpr unsigned total = 20000;
    EventQueue eq;
    stats::Registry reg;
    dram::DramController ctrl(eq, "probe", cfg.dramTiming(),
                              cfg.dimm.numRanks, cfg.dimm.lineBytes,
                              reg.group("probe"), cfg.dramScheduler);
    Rng rng(seed);
    unsigned submitted = 0;
    unsigned done = 0;
    std::function<void()> pump = [&] {
        while (submitted < total) {
            dram::DramRequest req;
            req.local = rng.below(1ull << 30) & ~Addr(63);
            req.isWrite = rng.chance(write_ratio);
            req.done = [&done] { ++done; };
            if (!ctrl.enqueue(std::move(req)))
                return;
            ++submitted;
        }
    };
    ctrl.setUnblockCallback(pump);
    const auto t0 = Clock::now();
    pump();
    while (done < total && eq.step()) {
    }
    const double s = secondsSince(t0);
    return done == total ? s * 1e9 / total : 0;
}

/** Host ns per message of a lone DL group NoC on @p cfg's topology. */
double
nocProbe(const SystemConfig &cfg, double flits_per_msg, std::uint64_t seed)
{
    constexpr unsigned total = 100000;
    const unsigned nodes = cfg.groupSize();
    if (nodes < 2 || flits_per_msg <= 0)
        return 0;
    EventQueue eq;
    stats::Registry reg;
    noc::Network net(eq, "probe", cfg.link, nodes, reg);
    Rng rng(seed);
    // Mix whole-flit sizes so their mean matches the workload's.
    const unsigned base = static_cast<unsigned>(flits_per_msg);
    const double frac = flits_per_msg - base;
    unsigned delivered = 0;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < total; ++i) {
        noc::Message m;
        m.src = static_cast<int>(rng.below(nodes));
        m.dst = static_cast<int>(rng.below(nodes - 1));
        if (m.dst >= m.src)
            ++m.dst;
        m.flits = std::max(1u, base + (rng.chance(frac) ? 1u : 0u));
        m.deliver = [&delivered](int) { ++delivered; };
        while (!net.tryInject(m))
            if (!eq.step())
                return 0;
    }
    while (delivered < total && eq.step()) {
    }
    const double s = secondsSince(t0);
    return delivered == total ? s * 1e9 / total : 0;
}

// --------------------------------------------------------------------
// Reporting
// --------------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    std::vector<double> samples;

    /**
     * The smallest sample. Only host times vary between samples, and
     * contention on a shared host only ever adds to them, in phases
     * many seconds long: the median of one invocation's samples follows
     * the host's load, the minimum follows the program.
     */
    double
    value() const
    {
        return *std::min_element(samples.begin(), samples.end());
    }
};

/** Quartiles as Python's statistics.quantiles(data, n=4) gives them. */
std::vector<double>
quartiles(std::vector<double> d)
{
    std::sort(d.begin(), d.end());
    const std::size_t n = d.size();
    if (n == 1)
        return {d[0], d[0], d[0]};
    std::vector<double> q;
    const std::size_t m = n + 1;
    for (std::size_t i = 1; i < 4; ++i) {
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta = static_cast<double>(i * m) - 4.0 * j;
        q.push_back((d[j - 1] * (4 - delta) + d[j] * delta) / 4);
    }
    return q;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

template <typename T, typename Fn>
std::vector<double>
collect(const std::vector<T> &xs, Fn field)
{
    std::vector<double> v;
    for (const auto &x : xs)
        v.push_back(static_cast<double>(field(x)));
    return v;
}

double
wallOf(const Run &r)
{
    return r.wallS;
}

double
median(const std::vector<double> &v)
{
    return quartiles(v)[1];
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<Metric>
endToEndMetrics(const std::vector<Run> &plain,
                const std::vector<SetupCost> &setups)
{
    const Values &sim = plain.front().sim;
    return {
        {"wall_s", "s", collect(plain, wallOf)},
        {"setup_s", "s",
         collect(setups, [](const SetupCost &c) { return c.buildS + c.genS; })},
        {"peak_rss_mb", "MB", {peakRssMb()}},
        {"sim_time_us", "us", {sim.at("sim_time_us")}},
        {"sim_energy_uj", "uJ", {sim.at("sim_energy_uj")}},
        {"sim_p50_us", "us", {sim.at("sim_p50_us")}},
        {"sim_p99_us", "us", {sim.at("sim_p99_us")}},
        {"sim_goodput_mqps", "Mreq/s", {sim.at("sim_goodput_mqps")}},
    };
}

std::vector<Metric>
perLayerMetrics(const Spec &spec, std::uint64_t seed,
                const std::vector<Run> &plain,
                const std::vector<SetupCost> &setups, const Run &hooked,
                const Run &traced)
{
    const double events = static_cast<double>(hooked.events);
    const double wall = median(collect(plain, wallOf));
    const HookCost &h = hooked.hooks;
    const Values &l = hooked.layer;
    const SystemConfig cfg = makeConfig(spec, seed);

    std::vector<double> dram_ns, noc_ns;
    for (std::uint64_t i = 0; i < 3; ++i) {
        dram_ns.push_back(dramProbe(cfg, l.at("dram.write_ratio"),
                                    seed + i));
        noc_ns.push_back(nocProbe(cfg, l.at("noc.flits_per_msg"),
                                  seed + i));
    }

    std::vector<Metric> m = {
        {"sim.events", "count", {events}},
        {"sim.ns_per_event", "ns",
         collect(plain, [&](const Run &r) { return r.wallS * 1e9 / events; })},
        {"sim.allocs_per_event", "count",
         {ratio(static_cast<double>(hooked.runAllocs - h.nextAllocs -
                                    h.otherAllocs),
                events)}},
        {"sim.events_per_sim_us", "1/us",
         {ratio(events, hooked.sim.at("sim_time_us"))}},
        {"system.build_s", "s",
         collect(setups, [](const SetupCost &c) { return c.buildS; })},
        {"system.build_allocs", "count",
         collect(setups, [](const SetupCost &c) { return c.buildAllocs; })},
        {"workloads.gen_s", "s",
         collect(setups, [](const SetupCost &c) { return c.genS; })},
        {"workloads.ops", "count", {static_cast<double>(h.ops)}},
        {"workloads.next_share", "ratio", {ratio(h.nextS, hooked.wallS)}},
        {"workloads.next_allocs_per_op", "count",
         {ratio(static_cast<double>(h.nextAllocs),
                static_cast<double>(h.ops))}},
        {"workloads.verify_s", "s", {h.verifyS}},
        {"dram.host_ns_per_req", "ns", dram_ns},
        {"noc.host_ns_per_msg", "ns", noc_ns},
        {"obs.trace_overhead", "ratio", {ratio(traced.wallS, wall)}},
    };
    static const std::pair<const char *, const char *> from_stats[] = {
        {"dram.reqs", "count"},
        {"dram.write_ratio", "ratio"},
        {"dram.row_hit_ratio", "ratio"},
        {"dram.access_latency_ns", "ns"},
        {"noc.flits", "count"},
        {"noc.link_busy_share", "ratio"},
        {"dll.sent", "count"},
        {"dll.retry_ratio", "ratio"},
        {"dll.corrupt", "count"},
        {"fabric.transactions", "count"},
        {"fabric.link_byte_share", "ratio"},
        {"fabric.latency_ns", "ns"},
        {"host.forwards", "count"},
        {"host.forward_latency_ns", "ns"},
        {"host.polls", "count"},
        {"host.idle_poll_ratio", "ratio"},
        {"host.discovery_ns", "ns"},
        {"host.bus_occupancy", "ratio"},
        {"dimm.instructions", "count"},
        {"dimm.remote_ref_ratio", "ratio"},
        {"dimm.stall_remote_share", "ratio"},
        {"dimm.barrier_share", "ratio"},
        {"sync.episodes", "count"},
        {"sync.barrier_ns", "ns"},
    };
    for (const auto &[name, unit] : from_stats)
        m.push_back({name, unit, {l.at(name)}});
    for (const auto &[name, value] : traced.trace) {
        const bool dur = name.size() > 8 &&
                         name.compare(name.size() - 8, 8, ".span_us") == 0;
        m.push_back({name, dur ? "us" : "count", {value}});
    }
    return m;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string gitSha = "unknown";
    bool forceFail = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--git-sha SHA] "
                 "[--force-fail]\n"
                 "workloads:",
                 msg);
    for (const auto &s : specs)
        std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = next();
        else if (k == "--seed")
            a.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(next().c_str(), nullptr);
        else if (k == "--trace")
            a.trace = next() == "1";
        else if (k == "--git-sha")
            a.gitSha = next();
        else if (k == "--force-fail")
            a.forceFail = true;
        else
            usage(("unknown argument " + k).c_str());
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Spec *spec = nullptr;
    for (const auto &s : specs)
        if (args.workload == s.name)
            spec = &s;
    if (!spec)
        usage(("unknown workload '" + args.workload + "'").c_str());

    const SystemConfig cfg = makeConfig(*spec, args.seed);

    // An untimed warm-up run first: the process's first run pays for
    // heap growth and cold caches that later runs do not.
    const Run warmup =
        runOnce(*spec, args.seed, Mode::Plain, args.forceFail);

    // Untraced repeats fill the measuring time; at least three, so
    // every host time comes from several samples.
    constexpr std::size_t minRepeats = 3;
    std::vector<Run> plain;
    const auto start = Clock::now();
    while (plain.size() < minRepeats || secondsSince(start) < args.seconds)
        plain.push_back(runOnce(*spec, args.seed, Mode::Plain,
                                args.forceFail));

    // Set-up is short next to a run, so it is sampled more often.
    constexpr std::size_t minSetups = 20;
    std::vector<SetupCost> setups;
    for (const auto &r : plain)
        setups.push_back(r.setup);
    while (setups.size() < minSetups)
        setups.push_back(setUp(*spec, cfg, args.seed).cost);

    std::vector<const Run *> all = {&warmup};
    for (const auto &r : plain)
        all.push_back(&r);
    Run hooked, traced;
    if (args.trace) {
        hooked = runOnce(*spec, args.seed, Mode::Hooked, args.forceFail);
        traced = runOnce(*spec, args.seed, Mode::Traced, args.forceFail);
        all.push_back(&hooked);
        all.push_back(&traced);
    }

    // The correctness gate: every run verifies and the simulated
    // outcome is bit-identical across repeats, hooks and tracing.
    std::uint64_t attempted = 0, failed = 0;
    bool identical = true;
    for (const Run *r : all) {
        attempted += r->attempted;
        failed += r->failed;
        identical = identical && r->digest == plain[0].digest &&
                    r->sim == plain[0].sim && r->layer == plain[0].layer &&
                    r->events == plain[0].events;
    }
    bool correct = failed == 0 && identical;
    if (args.trace && traced.trace.at("obs.dropped") != 0)
        correct = false;

    const std::vector<Metric> metrics =
        args.trace
            ? perLayerMetrics(*spec, args.seed, plain, setups, hooked,
                              traced)
            : endToEndMetrics(plain, setups);

    std::string config = "{";
    for (const auto &[key, value] : cfg.describeEntries())
        config += (config.size() > 1 ? ", \"" : "\"") + key + "\": " + value;
    config += "}";

    std::string report =
        "{\"report\": {\"workload\": \"" + std::string(spec->name) +
        "\", \"seed\": " + std::to_string(args.seed) +
        ", \"trace\": " + (args.trace ? "true" : "false") +
        ", \"seconds\": " + num(args.seconds) +
        ", \"hostCpus\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"buildType\": \"" PERFBENCH_BUILD_TYPE "\"" +
        ", \"compiler\": \"" + stats::jsonEscape(compiler()) +
        "\", \"gitSha\": \"" + stats::jsonEscape(args.gitSha) +
        "\", \"repeats\": " + std::to_string(plain.size()) +
        ", \"digest\": \"" + hex(plain[0].digest) +
        "\", \"identical\": " + (identical ? "true" : "false") +
        ", \"failedFrac\": " +
        num(static_cast<double>(failed) / static_cast<double>(attempted)) +
        ", \"metrics\": {";
    std::string result = "{\"correct\": " +
                         std::string(correct ? "true" : "false") +
                         ", \"attempted\": " + std::to_string(attempted) +
                         ", \"failed\": " + std::to_string(failed) +
                         ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        const auto q = quartiles(m.samples);
        const std::string sep = i ? ", " : "";
        report += sep + "\"" + m.name + "\": {\"value\": " + num(m.value()) +
                  ", \"median\": " + num(q[1]) +
                  ", \"q1\": " + num(q[0]) + ", \"q3\": " + num(q[2]) +
                  ", \"n\": " + std::to_string(m.samples.size()) +
                  ", \"samples\": [";
        for (std::size_t k = 0; k < m.samples.size(); ++k)
            report += (k ? ", " : "") + num(m.samples[k]);
        report += "], \"unit\": \"" + m.unit + "\"}";
        result += sep + "\"" + m.name + "\": {\"value\": " + num(m.value()) +
                  ", \"unit\": \"" + m.unit + "\"}";
    }
    report += "}, \"config\": " + config + "}}";
    result += "}}";
    std::printf("%s\n%s\n", report.c_str(), result.c_str());
    return 0;
}
