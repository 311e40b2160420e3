/** @file The serving frontend (docs/serving.md): arrival processes
 * and Zipfian popularity, deterministic request plans, the kv / embed
 * workloads end to end on the NMP system and the host baseline, the
 * serve stats group, and the byte-identity contract -- same
 * serve.seed, same stats JSON. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats_json.hh"
#include "dimm/reliability.hh"
#include "rack/inter_host_fabric.hh"
#include "system/host_runner.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/arrivals.hh"
#include "workloads/serving.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace {

using workloads::ArrivalProcess;
using workloads::ZipfSampler;

TEST(Arrivals, DeterministicPerSeed)
{
    ArrivalProcess a(1e6, 42, 1.0, 0, 0);
    ArrivalProcess b(1e6, 42, 1.0, 0, 0);
    ArrivalProcess c(1e6, 43, 1.0, 0, 0);
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        const Tick ta = a.next();
        EXPECT_EQ(ta, b.next());
        any_diff |= ta != c.next();
    }
    EXPECT_TRUE(any_diff);
}

TEST(Arrivals, MeanRateMatchesOffered)
{
    // 1M qps -> mean gap 1e6 ps. 10k draws puts the sample mean
    // within a few percent (stddev/sqrt(n) = 1%).
    ArrivalProcess a(1e6, 7, 1.0, 0, 0);
    const int n = 10000;
    Tick last = 0;
    for (int i = 0; i < n; ++i)
        last = a.next();
    const double mean_gap = static_cast<double>(last) / n;
    EXPECT_NEAR(mean_gap, 1e6, 5e4);
}

TEST(Arrivals, ArrivalsAreStrictlyMonotone)
{
    // Sub-tick gaps at absurd rates still advance time.
    ArrivalProcess a(1e12, 3, 1.0, 0, 0);
    Tick last = 0;
    for (int i = 0; i < 1000; ++i) {
        const Tick t = a.next();
        EXPECT_GT(t, last);
        last = t;
    }
}

TEST(Arrivals, BurstPhasesConcentrateArrivals)
{
    // 4x bursts for the first 10% of each period: the burst windows
    // should hold far more than 10% of the arrivals (4x rate -> ~31%
    // of all arrivals at these settings).
    ArrivalProcess a(1e6, 11, 4.0, 1000000, 100000);
    int in_burst = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (a.inBurst(a.next()))
            ++in_burst;
    EXPECT_GT(in_burst, n / 5);
}

TEST(Zipf, UniformWhenThetaZero)
{
    ZipfSampler z(100, 0.0);
    Rng rng(1);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[z(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 1000, 250);
}

TEST(Zipf, SkewConcentratesOnHotKeys)
{
    ZipfSampler z(10000, 0.99);
    Rng rng(1);
    std::uint64_t hot = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (z(rng) < 10)
            ++hot;
    // At theta=0.99 the ten hottest of 10k keys draw roughly half
    // the accesses; uniform would give 0.1%.
    EXPECT_GT(hot, n / 4);
    // And every rank stays in range.
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(z(rng), 10000u);
}

TEST(Serving, PlansAreDeterministicAndComplete)
{
    ServeConfig s;
    s.requests = 1000;
    s.keys = 4096;
    s.seed = 5;
    const auto plans = workloads::serving::buildPlans(s, 16, 2);
    const auto again = workloads::serving::buildPlans(s, 16, 2);
    ASSERT_EQ(plans.size(), 16u);
    std::uint64_t total = 0;
    for (unsigned t = 0; t < 16; ++t) {
        total += plans[t].reqs.size();
        EXPECT_EQ(plans[t].keys.size(), plans[t].reqs.size() * 2);
        EXPECT_EQ(plans[t].keys, again[t].keys);
        // Open-loop arrivals are strictly increasing per thread.
        Tick last = 0;
        for (const auto &r : plans[t].reqs) {
            EXPECT_GT(r.arrivalPs, last);
            last = r.arrivalPs;
            for (std::size_t k = 0; k < 2; ++k)
                EXPECT_LT(plans[t].keys[k], s.keys);
        }
    }
    EXPECT_EQ(total, s.requests);

    ServeConfig other = s;
    other.seed = 6;
    const auto differ = workloads::serving::buildPlans(other, 16, 2);
    EXPECT_NE(plans[0].keys, differ[0].keys);
}

struct ServeSpec
{
    std::string workload = "kv";
    std::string mode = "open";
    std::uint64_t seed = 1;
    std::uint64_t requests = 192;
    double offeredQps = 2e6;
    double burstFactor = 1.0;
};

/** One serving run on a 4D-2C system; returns full stats JSON plus
 * kernel summary, and checks the result verified. */
std::string
runServing(const ServeSpec &spec)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.mode = spec.mode;
    cfg.serve.seed = spec.seed;
    cfg.serve.requests = spec.requests;
    cfg.serve.offeredQps = spec.offeredQps;
    cfg.serve.keys = 8192;
    cfg.serve.burstFactor = spec.burstFactor;
    if (spec.burstFactor > 1.0) {
        cfg.serve.burstPeriodPs = 10000000;
        cfg.serve.burstLenPs = 2000000;
    }
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    auto wl =
        workloads::makeWorkload(spec.workload, p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified) << spec.workload << " seed=" << spec.seed;
    std::ostringstream os;
    stats::dumpJson(sys.stats(), os, /*include_empty=*/true);
    os << "\nkernelTicks=" << r.kernelTicks;
    return os.str();
}

TEST(Serving, KvOpenLoopServesAndRecordsLatency)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.requests = 192;
    cfg.serve.keys = 8192;
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    auto wl = workloads::makeWorkload("kv", p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified);

    const auto &reg = sys.stats();
    EXPECT_DOUBLE_EQ(reg.scalar("serve.requests"), 192.0);
    const double p50 = reg.scalar("serve.latencyP50Ps");
    const double p95 = reg.scalar("serve.latencyP95Ps");
    const double p99 = reg.scalar("serve.latencyP99Ps");
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GT(reg.scalar("serve.achievedQps"), 0.0);
    EXPECT_DOUBLE_EQ(reg.scalar("serve.offeredQps"),
                     cfg.serve.offeredQps);
    // Open loop at a modest rate: cores idle between arrivals.
    EXPECT_GT(reg.scalar("serve.reqWaitPs"), 0.0);
}

TEST(Serving, EmbedClosedLoopServes)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.mode = "closed";
    cfg.serve.requests = 96;
    cfg.serve.keys = 4096;
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    auto wl = workloads::makeWorkload("embed", p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified);

    const auto &reg = sys.stats();
    EXPECT_DOUBLE_EQ(reg.scalar("serve.requests"), 96.0);
    EXPECT_GT(reg.scalar("serve.latencyP50Ps"), 0.0);
    // Closed loop never waits for an arrival.
    EXPECT_DOUBLE_EQ(reg.scalar("serve.reqWaitPs"), 0.0);
    EXPECT_DOUBLE_EQ(reg.scalar("serve.offeredQps"), 0.0);
}

TEST(Serving, NonServingRunsHaveNoServeGroup)
{
    // A run that serves no request reports no serve group and no
    // per-core request stats in its default dump.
    auto cfg = SystemConfig::preset("4D-2C");
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = 4;
    auto wl = workloads::makeWorkload("gups", p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified);
    EXPECT_DOUBLE_EQ(sys.stats().sumScalar("serve", "requests"), 0.0);
    EXPECT_DOUBLE_EQ(sys.stats().sumScalar("dimm", "requests"), 0.0);
    std::ostringstream os;
    stats::dumpJson(sys.stats(), os);
    EXPECT_EQ(os.str().find("reqLatencyPs"), std::string::npos);
    EXPECT_EQ(os.str().find("\"serve\""), std::string::npos);
}

TEST(ServingDeterminism, RepeatRunsAreByteIdentical)
{
    for (const char *w : {"kv", "embed"}) {
        ServeSpec s;
        s.workload = w;
        const std::string a = runServing(s);
        const std::string b = runServing(s);
        EXPECT_EQ(a, b) << w;
    }
}

TEST(ServingDeterminism, RepeatClosedAndBurstyRunsAreByteIdentical)
{
    ServeSpec s;
    s.workload = "kv";
    s.mode = "closed";
    EXPECT_EQ(runServing(s), runServing(s)) << "closed loop diverged";

    ServeSpec b;
    b.workload = "kv";
    b.burstFactor = 4.0;
    EXPECT_EQ(runServing(b), runServing(b)) << "bursty arrivals diverged";
}

TEST(ServingDeterminism, SeedChangesTheRun)
{
    ServeSpec s;
    s.workload = "kv";
    s.seed = 1;
    const std::string a = runServing(s);
    s.seed = 2;
    EXPECT_NE(a, runServing(s));
}

/** Serve kv on the host baseline of @p cfg. */
std::unique_ptr<HostRunner>
runHostKv(const SystemConfig &cfg)
{
    auto host = std::make_unique<HostRunner>(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.host.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    dram::GlobalAddressMap gmap(cfg.numDimms, cfg.dimm.capacityBytes);
    auto wl = workloads::makeWorkload("kv", p, gmap);
    EXPECT_TRUE(host->run(*wl).verified);
    return host;
}

TEST(Serving, HostBaselineServes)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.requests = 96;
    cfg.serve.keys = 4096;
    const auto host = runHostKv(cfg);
    EXPECT_DOUBLE_EQ(host->stats().scalar("serve.requests"), 96.0);
    EXPECT_GT(host->stats().scalar("serve.latencyP50Ps"), 0.0);
}

TEST(Serving, HostOpenLoopCountsArrivalWaits)
{
    // The host cores run the NMP cores' request engine, so an
    // open-loop host core idling until an arrival counts the wait.
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.mode = "open";
    cfg.serve.requests = 96;
    cfg.serve.keys = 4096;
    const auto host = runHostKv(cfg);
    EXPECT_GT(host->stats().scalar("serve.reqWaitPs"), 0.0);
}

/** Forwards next() and nothing else, like a profiling wrapper. */
class PassThroughProgram : public ThreadProgram
{
  public:
    explicit PassThroughProgram(std::unique_ptr<ThreadProgram> inner)
        : inner(std::move(inner))
    {}

    Op next() override { return inner->next(); }

  private:
    std::unique_ptr<ThreadProgram> inner;
};

/** Wraps every program of @p inner in a PassThroughProgram. */
class PassThroughWorkload : public workloads::Workload
{
  public:
    PassThroughWorkload(workloads::Workload &inner,
                        const dram::GlobalAddressMap &gmap)
        : Workload(inner.params(), gmap), inner(inner)
    {}

    std::string name() const override { return inner.name(); }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return std::make_unique<PassThroughProgram>(inner.program(tid));
    }

    void reset() override { inner.reset(); }
    bool verify() const override { return inner.verify(); }

  private:
    workloads::Workload &inner;
};

TEST(Serving, WrappedProgramsServeLikeBareOnes)
{
    // The cores learn that a program serves requests from its op
    // stream alone: a wrapper that forwards only next() must yield
    // the same stats, on the NMP cores (with and without the
    // reliability layer) and on the host baseline.
    for (const double deadline_us : {0.0, 50.0}) {
        auto cfg = SystemConfig::preset("4D-2C");
        cfg.serve.requests = 96;
        cfg.serve.keys = 4096;
        cfg.serve.deadlineUs = deadline_us;
        workloads::WorkloadParams p;
        p.numThreads = cfg.numDimms * cfg.dimm.numCores;
        p.numDimms = cfg.numDimms;
        p.serve = cfg.serve;
        std::string dumps[2];
        for (const bool wrap : {false, true}) {
            System sys(cfg);
            auto wl = workloads::makeWorkload("kv", p, sys.addressMap());
            PassThroughWorkload wrapped(*wl, sys.addressMap());
            Runner runner(sys, wrap ? static_cast<workloads::Workload &>(
                                          wrapped)
                                    : *wl);
            EXPECT_TRUE(runner.run().verified) << deadline_us;
            EXPECT_DOUBLE_EQ(sys.stats().scalar("serve.requests"), 96.0)
                << deadline_us;
            std::ostringstream os;
            stats::dumpJson(sys.stats(), os);
            dumps[wrap] = os.str();
        }
        EXPECT_NE(dumps[1].find("reqLatencyPs"), std::string::npos);
        EXPECT_EQ(dumps[0], dumps[1]) << deadline_us;
    }

    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.requests = 96;
    cfg.serve.keys = 4096;
    workloads::WorkloadParams p;
    p.numThreads = cfg.host.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    dram::GlobalAddressMap gmap(cfg.numDimms, cfg.dimm.capacityBytes);
    std::string dumps[2];
    for (const bool wrap : {false, true}) {
        HostRunner host(cfg);
        auto wl = workloads::makeWorkload("kv", p, gmap);
        PassThroughWorkload wrapped(*wl, gmap);
        const RunResult r = wrap ? host.run(wrapped) : host.run(*wl);
        EXPECT_TRUE(r.verified);
        EXPECT_DOUBLE_EQ(host.stats().scalar("serve.requests"), 96.0);
        std::ostringstream os;
        stats::dumpJson(host.stats(), os);
        dumps[wrap] = os.str();
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(Serving, ConfigRejectsBadKnobs)
{
    auto bad = [](const char *key, const char *value,
                  const char *msg) {
        auto cfg = SystemConfig::preset("4D-2C");
        cfg.set(key, value);
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    msg) << key << "=" << value;
    };
    bad("serve.mode", "batch", "serve.mode");
    bad("serve.zipfTheta", "1.5", "zipfTheta");
    bad("serve.getFraction", "1.5", "getFraction");
    bad("serve.offeredQps", "0", "offeredQps");
    bad("serve.requests", "0", "requests");
    bad("serve.burstFactor", "0.5", "burstFactor");
    // Reliability knobs (docs/serving.md).
    bad("serve.deadlineUs", "-1", "deadlineUs");
    bad("serve.backoffUs", "-1", "backoffUs");
    bad("serve.hedgeAfterUs", "-1", "hedgeAfterUs");
}

TEST(Serving, ConfigRejectsRetryAndShedMisuse)
{
    // Retries with no backoff would spin at the same tick.
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.set("serve.maxRetries", "3");
    cfg.set("serve.backoffUs", "0");
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "backoffUs");
    // Shedding needs a queue to bound: closed-loop threads never
    // queue arrivals.
    auto closed = SystemConfig::preset("4D-2C");
    closed.set("serve.mode", "closed");
    closed.set("serve.maxInflight", "8");
    EXPECT_EXIT(closed.validate(), ::testing::ExitedWithCode(1),
                "maxInflight");
}

// ---- Request-level reliability (docs/serving.md) -------------------

TEST(Reliability, BackoffIsDeterministicAndJittered)
{
    serve_rel::Backoff a, b, c;
    a.reseed(1, 0);
    b.reseed(1, 0);
    c.reseed(1, 1);
    const Tick base = 5000000;
    bool streams_differ = false;
    for (unsigned attempt = 1; attempt <= 10; ++attempt) {
        const Tick da = a.delay(base, attempt);
        // Same (seed, tid) -> the same delay sequence.
        EXPECT_EQ(da, b.delay(base, attempt));
        streams_differ |= da != c.delay(base, attempt);
        // Exponential envelope with jitter in [span/2, span].
        const Tick span = base << (attempt - 1);
        EXPECT_GE(da, span / 2);
        EXPECT_LE(da, span);
    }
    EXPECT_TRUE(streams_differ);
}

TEST(Reliability, CircuitBreakerLifecycle)
{
    using Decision = serve_rel::CircuitBreaker::Decision;
    serve_rel::CircuitBreaker cb;
    const Tick penalty = 500;
    // Closed + live route: admit without ceremony.
    EXPECT_EQ(cb.admit(1, true, 1000, penalty), Decision::Admit);
    // A dead route trips it open...
    EXPECT_EQ(cb.admit(1, false, 1000, penalty), Decision::FastFail);
    // ...and it fails fast through the penalty window even after the
    // route recovers.
    EXPECT_EQ(cb.admit(1, true, 1200, penalty), Decision::FastFail);
    // Penalty elapsed + route up: exactly one half-open trial.
    EXPECT_EQ(cb.admit(1, true, 1600, penalty), Decision::AdmitTrial);
    EXPECT_EQ(cb.admit(1, true, 1600, penalty), Decision::FastFail);
    // Trial failure re-opens with a fresh penalty.
    cb.onOutcome(1, false, 1700, penalty);
    EXPECT_EQ(cb.admit(1, true, 1800, penalty), Decision::FastFail);
    EXPECT_EQ(cb.admit(1, true, 2300, penalty), Decision::AdmitTrial);
    // Trial success closes it again.
    cb.onOutcome(1, true, 2400, penalty);
    EXPECT_EQ(cb.admit(1, true, 2500, penalty), Decision::Admit);
    // Breakers are per target host: host 2 was never tripped.
    EXPECT_EQ(cb.admit(2, false, 100, penalty), Decision::FastFail);
    EXPECT_EQ(cb.admit(1, true, 2600, penalty), Decision::Admit);
}

TEST(Reliability, RouteUpFollowsRackOutages)
{
    // Two hosts. Host 1's rack port is out over [20, 220) us and its
    // gateway's bridge attach over [100, 500) us; routeUp() holds
    // while either cross-host path does, as hostPathSend's failover.
    auto cfg = SystemConfig::preset("8D-4C");
    cfg.rack.hosts = 2;
    cfg.rack.hostDownId = 1;
    cfg.rack.hostDownAtPs = 20000000;
    cfg.rack.hostDownForPs = 200000000;
    cfg.rack.nodeDownId = 1;
    cfg.rack.nodeDownAtPs = 100000000;
    cfg.rack.nodeDownForPs = 400000000;
    ASSERT_EQ(cfg.hostOfGroup(cfg.rack.nodeDownId), 1u);
    EventQueue eq;
    stats::Registry reg;
    rack::InterHostFabric fabric(eq, cfg, reg);
    const Tick us = 1000000;

    eq.runUntil(10 * us);
    EXPECT_TRUE(fabric.routeUp(0, 1));
    // Port down: the pooled gateways still connect the hosts.
    eq.runUntil(80 * us);
    EXPECT_FALSE(fabric.hostUp(1));
    EXPECT_TRUE(fabric.routeUp(0, 1));
    EXPECT_TRUE(fabric.routeUp(1, 0));
    // Both cross-host paths down: the route is gone...
    eq.runUntil(180 * us);
    EXPECT_FALSE(fabric.bridgeUp(0, 1));
    EXPECT_FALSE(fabric.routeUp(0, 1));
    EXPECT_FALSE(fabric.routeUp(1, 0));
    // ...but a host always reaches itself.
    EXPECT_TRUE(fabric.routeUp(1, 1));
    EXPECT_TRUE(fabric.routeUp(0, 0));
    // The port heals through the reprobe cadence before the gateway.
    eq.runUntil(350 * us);
    EXPECT_TRUE(fabric.hostUp(1));
    EXPECT_FALSE(fabric.bridgeUp(0, 1));
    EXPECT_TRUE(fabric.routeUp(0, 1));
    eq.runUntil(600 * us);
    EXPECT_TRUE(fabric.bridgeUp(0, 1));
    EXPECT_TRUE(fabric.routeUp(0, 1));
}

/** Reliability counters of one serving run (0 when a scalar was
 * never created). */
struct RelStats
{
    std::string json;
    /** Default dump: zero-valued stats omitted. */
    std::string dump;
    double requests = 0, misses = 0, shed = 0, retries = 0,
           fastFails = 0, failed = 0, hedges = 0, hedgeWins = 0,
           goodput = 0, errorRate = 0;
};

RelStats
runReliability(const SystemConfig &cfg, const char *workload = "kv")
{
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    auto wl = workloads::makeWorkload(workload, p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    // Aborted requests consume their ops without executing them, so
    // the workload's functional reference must still hold.
    EXPECT_TRUE(r.verified) << workload;
    const auto &reg = sys.stats();
    auto sv = [&](const char *s) {
        const std::string key = std::string("serve.") + s;
        return reg.hasScalar(key) ? reg.scalar(key) : 0.0;
    };
    RelStats out;
    out.requests = sv("requests");
    out.misses = sv("deadlineMisses");
    out.shed = sv("shedRequests");
    out.retries = sv("retries");
    out.fastFails = sv("breakerFastFails");
    out.failed = sv("failedRequests");
    out.hedges = sv("hedgedRequests");
    out.hedgeWins = sv("hedgeWins");
    out.goodput = sv("goodputQps");
    out.errorRate = sv("errorRate");
    std::ostringstream os;
    stats::dumpJson(sys.stats(), os, /*include_empty=*/true);
    out.json = os.str();
    std::ostringstream dump;
    stats::dumpJson(sys.stats(), dump);
    out.dump = dump.str();
    return out;
}

SystemConfig
relConfig()
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.mode = "open";
    cfg.serve.requests = 192;
    cfg.serve.keys = 8192;
    return cfg;
}

TEST(Reliability, ImpossibleDeadlineMissesEveryRequestExactlyOnce)
{
    // A 1 ns budget is gone before any value ref lands: every request
    // must miss exactly once, none may also complete, and the serve
    // group must still aggregate explicit zeros (the zero-completion
    // regression: all-shed/all-missed runs ARE a result).
    auto cfg = relConfig();
    cfg.serve.deadlineUs = 0.001;
    const RelStats r = runReliability(cfg);
    EXPECT_DOUBLE_EQ(r.misses, 192.0);
    EXPECT_DOUBLE_EQ(r.requests, 0.0);
    EXPECT_DOUBLE_EQ(r.errorRate, 1.0);
    EXPECT_DOUBLE_EQ(r.goodput, 0.0);
    EXPECT_NE(r.json.find("\"serve\""), std::string::npos);
}

TEST(Reliability, GenerousDeadlineCatchesNothing)
{
    // At a modest offered rate every request finishes far inside a
    // 500 us budget: arming the layer must not change the outcome.
    auto cfg = relConfig();
    cfg.serve.deadlineUs = 500;
    const RelStats r = runReliability(cfg);
    EXPECT_DOUBLE_EQ(r.requests, 192.0);
    EXPECT_DOUBLE_EQ(r.misses, 0.0);
    EXPECT_DOUBLE_EQ(r.errorRate, 0.0);
    EXPECT_GT(r.goodput, 0.0);
}

TEST(Reliability, DispositionsPartitionTheRunUnderPressure)
{
    // Overdriven far past per-thread service capacity with a tight
    // deadline: some requests miss in the queue, the rest complete,
    // and every request is disposed of exactly once.
    auto cfg = relConfig();
    cfg.serve.offeredQps = 1e8;
    cfg.serve.requests = 640;
    cfg.serve.deadlineUs = 0.5;
    const RelStats r = runReliability(cfg);
    EXPECT_GT(r.misses, 0.0);
    EXPECT_GT(r.requests, 0.0);
    EXPECT_DOUBLE_EQ(r.requests + r.misses + r.shed + r.failed, 640.0);
}

TEST(Reliability, HostBaselineHonoursTheDeadline)
{
    // An overdriven run on the host baseline, whose p99 without a
    // deadline is ~0.9 us: its cores run the reliability layer too,
    // so a 0.5 us deadline catches the tail.
    auto cfg = relConfig();
    cfg.serve.offeredQps = 1e9;
    cfg.serve.requests = 640;
    cfg.serve.deadlineUs = 0.5;
    const auto host = runHostKv(cfg);
    const stats::Registry &reg = host->stats();
    const double misses = reg.scalar("serve.deadlineMisses");
    EXPECT_GT(misses, 0.0);
    EXPECT_DOUBLE_EQ(reg.scalar("serve.requests") + misses +
                         reg.scalar("serve.shedRequests") +
                         reg.scalar("serve.failedRequests"),
                     640.0);
}

TEST(Reliability, OverloadShedsTheQueueTail)
{
    // Arrivals 4x faster than per-thread service with a 4-deep
    // admission bound: the backlog past the bound is shed, and shed
    // requests never also miss their deadline.
    auto cfg = relConfig();
    cfg.serve.offeredQps = 1e8;
    cfg.serve.requests = 640;
    cfg.serve.maxInflight = 4;
    const RelStats r = runReliability(cfg);
    EXPECT_GT(r.shed, 0.0);
    EXPECT_DOUBLE_EQ(r.requests + r.shed, 640.0);
    EXPECT_NEAR(r.errorRate, r.shed / 640.0, 1e-12);
}

TEST(Reliability, HedgedGetsRaceTheReplica)
{
    // With a hedge trigger under the typical value fetch time, slow
    // GETs duplicate to the replica range; wins are a subset, and
    // every request still completes (hedging never drops work).
    auto cfg = relConfig();
    cfg.serve.hedgeAfterUs = 0.3;
    const RelStats r = runReliability(cfg);
    EXPECT_GT(r.hedges, 0.0);
    EXPECT_LE(r.hedgeWins, r.hedges);
    EXPECT_DOUBLE_EQ(r.requests, 192.0);
    EXPECT_DOUBLE_EQ(r.errorRate, 0.0);
}

TEST(Reliability, KnobsOffKeepTheStatsShape)
{
    // The idle layer counts nothing: a rel-off run leaves every
    // reliability scalar, per core or aggregated, at zero, so the
    // default dump (zero values omitted) shows none of them.
    auto cfg = relConfig();
    const RelStats r = runReliability(cfg);
    EXPECT_DOUBLE_EQ(r.requests, 192.0);
    EXPECT_EQ(r.dump.find("goodputQps"), std::string::npos);
    EXPECT_EQ(r.dump.find("reqDeadlineMisses"), std::string::npos);
    EXPECT_EQ(r.dump.find("reqShed"), std::string::npos);
    for (const double v : {r.misses, r.shed, r.retries, r.fastFails,
                           r.failed, r.hedges, r.hedgeWins, r.goodput,
                           r.errorRate})
        EXPECT_DOUBLE_EQ(v, 0.0);
}

/** The chaos scenario of bench/chaos_serving.cc, shrunk for a unit
 * test: two hosts in forwarded mode, host 1's rack port dying mid-run
 * with every reliability mechanism armed. */
SystemConfig
chaosConfig()
{
    auto cfg = SystemConfig::preset("8D-4C");
    cfg.rack.hosts = 2;
    cfg.rack.idcMode = "forwarded";
    cfg.rack.hostDownId = 1;
    cfg.rack.hostDownAtPs = 50000000;
    cfg.rack.hostDownForPs = 60000000;
    cfg.link.retryTimeoutPs = 40000000;
    cfg.serve.mode = "open";
    cfg.serve.offeredQps = 2e6;
    cfg.serve.requests = 512;
    cfg.serve.keys = 8192;
    cfg.serve.deadlineUs = 25;
    cfg.serve.maxRetries = 3;
    cfg.serve.backoffUs = 5;
    cfg.serve.maxInflight = 128;
    return cfg;
}

TEST(Reliability, ChaosRunDegradesGracefully)
{
    const RelStats r = runReliability(chaosConfig());
    // The outage must actually bite (deadline misses among the parked
    // crossings) while the vast majority of requests still complete.
    EXPECT_GT(r.misses, 0.0);
    EXPECT_GT(r.requests, 0.9 * 512);
    EXPECT_DOUBLE_EQ(r.requests + r.misses + r.shed + r.failed, 512.0);
}

TEST(Reliability, GatewayOutageTripsTheBreaker)
{
    // The chaos cell plus a dead pool node on host 1: while both of
    // host 1's rack routes are down, cross-host requests find the
    // route gone and the circuit breaker fails them fast, backs off
    // and retries, and fails the few that exhaust their retry budget.
    auto cfg = chaosConfig();
    cfg.rack.nodeDownId = 1;
    cfg.rack.nodeDownAtPs = 50000000;
    cfg.rack.nodeDownForPs = 60000000;
    const RelStats r = runReliability(cfg);
    EXPECT_GT(r.fastFails, 0.0);
    EXPECT_GT(r.retries, 0.0);
    EXPECT_GT(r.failed, 0.0);
    EXPECT_DOUBLE_EQ(r.requests + r.misses + r.shed + r.failed, 512.0);
}

TEST(ReliabilityDeterminism, RepeatChaosRunsAreByteIdentical)
{
    const RelStats a = runReliability(chaosConfig());
    const RelStats b = runReliability(chaosConfig());
    EXPECT_EQ(a.json, b.json);
}

} // namespace
} // namespace dimmlink
