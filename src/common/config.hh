/**
 * @file
 * SystemConfig: every knob of the simulated machine in one value type
 * (the reconstruction of the paper's Table V plus the sweep parameters
 * used by the evaluation section).
 */

#ifndef DIMMLINK_COMMON_CONFIG_HH
#define DIMMLINK_COMMON_CONFIG_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace dimmlink {

/** Which inter-DIMM communication fabric the system is built with. */
enum class IdcMethod {
    CpuForwarding,  ///< MCN / UPMEM style: host polls and forwards.
    DedicatedBus,   ///< AIM style: one shared multi-drop bus.
    ChannelBroadcast, ///< ABC-DIMM style: broadcast within a channel.
    DimmLink,       ///< This paper: packet routing over SerDes bridges.
};

/** Polling mechanisms of Table III. */
enum class PollingMode {
    Baseline,          ///< Host scans every DIMM periodically.
    BaselineInterrupt, ///< ALERT_N interrupt, then scan the channel.
    Proxy,             ///< Host polls one proxy DIMM per DL group.
    ProxyInterrupt,    ///< ALERT_N from the proxy, scan one DIMM.
};

/** Intra-group link topologies explored in Section VI (Fig. 17). */
enum class Topology {
    HalfRing, ///< The practical baseline: a linear chain of DIMMs.
    Ring,     ///< Chain plus a wrap-around link.
    Mesh,     ///< 2D mesh (groups arranged as 2 x N/2).
    Torus,    ///< 2D torus.
};

/** Synchronization schemes compared in Fig. 14. */
enum class SyncScheme {
    Centralized,  ///< One global master NMP core collects all arrivals.
    Hierarchical, ///< Master core / master DIMM / global (Section III-D).
};

const char *toString(IdcMethod m);
const char *toString(PollingMode m);
const char *toString(Topology t);
const char *toString(SyncScheme s);

/**
 * Enum parsers for config files and CLI flags. Matching is
 * case-insensitive and ignores punctuation, so the canonical paper
 * names ("DIMM-Link", "P-P+Itrpt") and the CLI spellings ("dimmlink",
 * "proxy-itrpt") both parse; unknown names fatal() listing the valid
 * ones. Each round-trips with its toString().
 */
IdcMethod idcMethodFromString(const std::string &s);
PollingMode pollingModeFromString(const std::string &s);
Topology topologyFromString(const std::string &s);
SyncScheme syncSchemeFromString(const std::string &s);

/** Host CPU and memory-channel parameters. */
struct HostConfig
{
    unsigned numCores = 16;
    double coreFreqMHz = 3600.0;
    /** Approximate IPC of one OoO host core on compute phases. */
    double computeIpc = 2.0;
    /** Peak bandwidth of one memory channel (DDR4-2400, 8B bus). */
    double channelGBps = 19.2;
    /** L1D per core. Like the LLC below, scaled with the problem
     * sizes (see DESIGN.md) so the baseline reproduces the paper's
     * cache-miss regime. */
    unsigned l1Bytes = 8 * 1024;
    unsigned l1Assoc = 8;
    /** Shared LLC. The evaluation scales problem sizes down ~500x
     * from the paper's inputs (see DESIGN.md); the LLC is scaled
     * with them so the host baseline stays in the memory-bound
     * regime the paper measures. */
    unsigned llcBytes = 128 * 1024;
    unsigned llcAssoc = 16;
    unsigned lineBytes = 64;
    /** Load-to-use latency of L1 / LLC / DRAM seen by a host core. */
    Tick l1LatencyPs = 1200;
    Tick llcLatencyPs = 11000;
    /** Fixed host-side latency to forward one DL packet (gem5-profiled
     * in the paper; a constant playing the same role here). */
    Tick forwardLatencyPs = 120 * tickPerNs;
    /** Latency to enter the interrupt handler for ALERT_N polling. */
    Tick interruptLatencyPs = 1500 * tickPerNs;
    /** Period of the periodic polling loop. */
    Tick pollIntervalPs = 1 * tickPerUs;
    /** Channel occupancy of one polling read: an uncached MMIO-style
     * read holds the bus for the whole round trip to the buffer
     * chip's polling registers, far longer than the burst itself. */
    Tick pollChannelPs = 150 * tickPerNs;
    /** Host cores dedicated to polling/forwarding in NMP mode. */
    unsigned pollThreads = 4;
    /** Host occupancy to issue one forwarded packet (the copy loop
     * itself; transfers pipeline through the MC queues). */
    Tick forwardIssuePs = 8 * tickPerNs;
};

/** One NMP DIMM (centralized buffer-chip architecture). */
struct DimmConfig
{
    unsigned numCores = 4;
    double coreFreqMHz = 2000.0;
    /** In-order NMP cores: IPC on compute phases. */
    double computeIpc = 1.0;
    unsigned l1Bytes = 16 * 1024;
    unsigned l1Assoc = 4;
    unsigned l2Bytes = 128 * 1024;
    unsigned l2Assoc = 8;
    unsigned lineBytes = 64;
    Tick l1LatencyPs = 1500;
    Tick l2LatencyPs = 6000;
    /** Maximum outstanding memory requests per core (MSHR window). */
    unsigned maxOutstanding = 16;
    /** Ranks per DIMM; NMP cores access ranks in parallel. */
    unsigned numRanks = 2;
    /** Capacity per DIMM. */
    std::uint64_t capacityBytes = 16ull * 1024 * 1024 * 1024;
};

/** The DIMM-Link interconnect (DL-Bridge + DL-Controllers). */
struct LinkConfig
{
    /** Bandwidth per direction per link; the paper's default is GRS
     * at 25 GB/s, swept from 4 to 64 in Fig. 16. */
    double linkGBps = 25.0;
    /** Per-hop router pipeline latency. */
    Tick routerLatencyPs = 4 * tickPerNs;
    /** SerDes + wire latency of one DL-Bridge hop. */
    Tick wireLatencyPs = 8 * tickPerNs;
    /** Input buffer depth per port, in flits. validate() requires a
     * whole maximal packet (17 flits: 1 header/tail flit + 16 payload
     * flits), and on cyclic topologies (Ring, and Torus rows of more
     * than two columns) a second one for the bubble the routers
     * reserve for deadlock freedom: 34 flits. */
    unsigned bufferFlits = 64;
    /** Retry timeout of the data link layer. */
    Tick retryTimeoutPs = 2 * tickPerUs;
    /** Maximum retries before the DLL declares the link failed. */
    unsigned maxRetries = 8;
    /** DLL selective-repeat window (outstanding sequence numbers per
     * sender; further sends are queued). Must stay well below 2^15 so
     * duplicate filtering survives sequence wraparound. */
    unsigned retryWindow = 64;
    Topology topology = Topology::HalfRing;
};

/** Dedicated-bus (AIM) fabric parameters. */
struct BusConfig
{
    /** The paper assumes the dedicated bus matches memory-bus beta. */
    double busGBps = 19.2;
    Tick arbitrationPs = 6 * tickPerNs;
};

/**
 * Deterministic link-fault injection: the driver that turns the DLL
 * retry machinery from dead code into a measured subsystem. Every
 * link derives its own RNG stream from `seed` and its name, so runs
 * are reproducible and seed-sweepable.
 */
struct FaultConfig
{
    /** Fault model: "none", "ber", "degrade", "stuck". */
    std::string model = "none";
    /** ber: independent per-bit flip probability. */
    double ber = 1e-5;
    /** Base seed; per-link streams are derived from it. */
    std::uint64_t seed = 1;
    /** degrade: effective-bandwidth multiplier in (0, 1]. */
    double degradeFactor = 0.5;
    /** stuck: outage start tick. */
    Tick stuckAtPs = 0;
    /** stuck: outage duration (messages stall until it ends). */
    Tick stuckForPs = 10 * tickPerUs;
    /** stuck: outage repeat period (0 = a single outage). */
    Tick stuckPeriodPs = 0;
    /** Only links whose name contains this substring are faulted
     * (empty = every link). */
    std::string linkFilter;

    // Failure recovery.
    /** Consecutive DLL retry exhaustions blaming a link before its
     * health drops from up to suspect (probing then decides). */
    unsigned suspectAfter = 2;
    /** Cadence of re-probe packets on suspect/down links; a probe
     * that answers within link.retryTimeoutPs recovers the link. */
    Tick reprobeIntervalPs = 20 * tickPerUs;
    /** What a transfer does when its retry budget exhausts:
     * "failover" re-submits it over the host CPU-forwarding path,
     * "drop" completes it losslessly in simulation but counts the
     * loss, "panic" aborts the run. */
    std::string onExhausted = "failover";
};

/**
 * Hang watchdog (src/system/watchdog.hh): detects an event queue that
 * went quiescent while the kernel still has outstanding work, and
 * fatal()s with a diagnostic dump instead of spinning or silently
 * mis-terminating. Off by default; execution-only, so the
 * watchdog.* keys are left out of describe() like obs.*.
 */
struct WatchdogConfig
{
    /** Progress-check period; 0 disables the watchdog. */
    Tick stallPs = 0;
};

/**
 * Observability: event tracing and periodic counter sampling
 * (src/obs/, docs/observability.md). Tracing is read-only -- turning
 * it on or off never changes what the simulation computes -- and the
 * obs.* keys are deliberately excluded from describe()/describeEntries()
 * so stats JSON stays byte-identical across tracing configurations.
 */
struct ObsConfig
{
    /** Master switch for the event tracer. */
    bool trace = false;
    /** Chrome trace-event JSON output path. */
    std::string traceOut = "trace.json";
    /** Comma-separated category list ("all", "dram,noc,dll,..."). */
    std::string categories = "all";
    /** Counter sampling period in ticks; 0 disables the sampler. */
    Tick sampleIntervalPs = 0;
    /** Time-series CSV output path (empty = don't write a file). */
    std::string sampleOut;
    /** Trace records kept per track before old ones are dropped. */
    unsigned ringCapacity = 16384;
};

/**
 * The serving frontend (docs/serving.md): request-level workloads
 * ("kv", "embed") driven by an open-loop arrival process with Zipfian
 * key popularity, or closed-loop for saturation sweeps. Like
 * faults.seed, every random stream derives deterministically from
 * serve.seed, so a fixed seed is byte-identical across runs.
 */
struct ServeConfig
{
    /** "open": requests arrive on a Poisson process at offeredQps
     * and latency includes queueing from the arrival; "closed": each
     * thread issues its next request as soon as the previous one
     * finishes (saturation throughput). */
    std::string mode = "open";
    /** Aggregate offered load, requests per second, across all
     * serving threads (open mode). */
    double offeredQps = 2e6;
    /** Total requests across all threads for one run. */
    std::uint64_t requests = 2048;
    /** Base seed of the per-thread arrival and key streams. */
    std::uint64_t seed = 1;
    /** Keyspace size: kv keys / embed table rows, block-distributed
     * across the DIMMs. */
    std::uint64_t keys = 65536;
    /** Zipfian skew of key popularity; 0 = uniform, YCSB default is
     * 0.99. Must stay below 1 (the YCSB generator's range). */
    double zipfTheta = 0.99;
    /** Hash popularity ranks over the keyspace so hot keys spread
     * across DIMMs (YCSB "scrambled Zipfian"); false concentrates
     * them on the first DIMMs. */
    bool scramble = true;
    /** kv: fraction of requests that are GETs (rest are PUTs). */
    double getFraction = 0.95;
    /** kv: value size per key. */
    unsigned valueBytes = 128;
    /** embed: floats per table row (row is embedDim * 4 bytes). */
    unsigned embedDim = 64;
    /** embed: rows gathered and reduced per request. */
    unsigned pooling = 32;
    /** Open-loop bursty phases: rate multiplier while a burst is on
     * (1 = plain Poisson). */
    double burstFactor = 1.0;
    /** Burst cycle period; 0 disables bursty phases. */
    Tick burstPeriodPs = 0;
    /** Burst duration within each period. */
    Tick burstLenPs = 0;
    /** Request-latency histogram geometry (per core, merged into the
     * "serve" stats group after a run). The default spans 512 us --
     * wide enough that tails stay resolvable well past saturation,
     * where queueing inflates latencies far beyond the service time. */
    Tick latBucketPs = 250000;
    unsigned latBuckets = 2048;

    // --- Request-level reliability layer (docs/serving.md). With
    // every knob at its default the layer builds nothing.

    /** End-to-end deadline per request; a request still in flight
     * past arrival + deadline is aborted and counted as
     * serve.deadlineMisses instead of polluting the latency SLO.
     * 0 = no deadlines. */
    double deadlineUs = 0;
    /** Retries after a circuit-breaker fast-fail before the request
     * is counted as serve.failedRequests. 0 = fail immediately. */
    unsigned maxRetries = 0;
    /** Base delay of the exponential backoff between retries
     * (doubled per attempt, plus deterministic jitter from the
     * per-thread stream off serve.seed). */
    double backoffUs = 5.0;
    /** Hedge GETs: if the primary fanout has not completed after
     * this long, duplicate it to the replica key range and take the
     * first completion. 0 = no hedging. */
    double hedgeAfterUs = 0;
    /** Admission control (open mode): a request still waiting when
     * maxInflight later arrivals have queued behind it on its thread
     * is shed at arrival and counted as serve.shedRequests.
     * 0 = never shed. */
    unsigned maxInflight = 0;

    /** Is any part of the reliability layer on? */
    bool
    relEnabled() const
    {
        return deadlineUs > 0 || maxRetries > 0 || hedgeAfterUs > 0 ||
               maxInflight > 0;
    }
};

/**
 * Rack-scale memory pooling (src/rack/, docs/rack.md): N hosts share
 * the pool of NMP-DIMM nodes over a switched, CXL.mem-style
 * inter-host fabric. The DL groups partition across the hosts
 * (whole groups, whole channels), and inter-group traffic whose
 * endpoints live under different hosts crosses the rack, either
 * host-forwarded (climb to the source host, cross the rack fabric,
 * descend at the destination host) or over pooled DIMM-Link bridges
 * that connect the hosts' gateway pool nodes directly and bypass
 * both host CPUs. With rack.hosts = 1 (the default) the rack layer
 * builds nothing and touches nothing.
 */
struct RackConfig
{
    /** Hosts sharing the pool; 1 = single-host (rack layer off). */
    unsigned hosts = 1;
    /** Inter-host fabric: "switch" (every crossing takes
     * two switch hops through a central CXL switch) or "direct"
     * (dedicated point-to-point host cables, no switch hops). */
    std::string fabric = "switch";
    /** Primary route of a cross-host IDC transfer: "pooled" (direct
     * DIMM-Link bridges between the hosts' gateway pool nodes) or
     * "forwarded" (climb to the source host and cross the rack
     * fabric). The other route is the failover path. */
    std::string idcMode = "pooled";
    /** One-way CXL.mem load/store latency of the rack fabric (the
     * research context sweeps 300-1500 ns). */
    Tick latencyPs = 500 * tickPerNs;
    /** Added latency per switch hop of the crossing. */
    Tick switchHopPs = 25 * tickPerNs;
    /** Per-direction bandwidth of each host's rack port. */
    double portGBps = 32.0;
    /** Per-direction bandwidth of one pooled DIMM-Link bridge lane. */
    double pooledGBps = 25.0;
    /** Failure injection: host whose rack port (and cross-host
     * forwarding CPU) dies at hostDownAtPs; its pool nodes stay
     * powered and reachable over the pooled bridges. 0 ticks = no
     * outage. */
    unsigned hostDownId = 0;
    Tick hostDownAtPs = 0;
    /** Outage duration; 0 = permanent (no recovery). */
    Tick hostDownForPs = 0;
    /** Failure injection: gateway pool node (a group id; must be the
     * first group of its host) whose bridge attach dies at
     * nodeDownAtPs, taking its host's pooled lanes down. */
    unsigned nodeDownId = 0;
    Tick nodeDownAtPs = 0;
    Tick nodeDownForPs = 0;
};

/** Energy model constants (Section V-C). */
struct EnergyConfig
{
    double linkPjPerBit = 1.17;     ///< GRS SerDes.
    double ddrRdWrPjPerBit = 14.0;  ///< DRAM array read/write.
    double busIoPjPerBit = 22.0;    ///< Off-chip IO over the memory bus.
    double activateNj = 2.1;        ///< One DDR ACT command.
    double nmpCoreWatt = 1.8 / 4;   ///< Per-core share of the 1.8 W quad.
    double hostForwardNjPerPkt = 60.0; ///< gem5+McPAT-profiled constant.
    double hostPollNj = 8.0;        ///< One polling read at the host.
    double dedicatedBusPjPerBit = 22.0; ///< AIM bus == memory-bus IO.
};

namespace dram {
struct Timing;
} // namespace dram

/** Everything needed to build a System. */
struct SystemConfig
{
    unsigned numDimms = 4;
    unsigned numChannels = 2;
    /** DIMMs per DL group (one group per CPU side; 0 = auto: split the
     * DIMMs into two equal groups unless there are <= 4). */
    unsigned dimmsPerGroup = 0;

    IdcMethod idcMethod = IdcMethod::DimmLink;
    PollingMode pollingMode = PollingMode::Proxy;
    SyncScheme syncScheme = SyncScheme::Hierarchical;
    bool distanceAwareMapping = false;
    /** Fraction of the kernel profiled before remapping (paper: ~1%). */
    double profileFraction = 0.01;

    HostConfig host;
    DimmConfig dimm;
    LinkConfig link;
    BusConfig bus;
    FaultConfig faults;
    ServeConfig serve;
    EnergyConfig energy;
    ObsConfig obs;
    WatchdogConfig watchdog;
    RackConfig rack;

    /** DRAM timing preset name (DDR4_2400, DDR5_4800, LPDDR5X_8533,
     * HBM2_2000, ...); see docs/dram_timing.md. */
    std::string dramPreset = "DDR4_2400";

    /** DRAM controller scheduling policy: "FRFCFS" (the default) or
     * "FCFS", which serves strictly in order. */
    std::string dramScheduler = "FRFCFS";

    std::uint64_t seed = 1;

    /** The timing table dramPreset names (the seam
     * System::build, host_runner and the energy model read). */
    dram::Timing dramTiming() const;

    /** DIMMs per channel (derived). */
    unsigned dimmsPerChannel() const { return numDimms / numChannels; }
    /** Actual group size after resolving the auto setting. */
    unsigned groupSize() const;
    /** Number of DL groups. */
    unsigned numGroups() const;
    /** Group index of a DIMM. */
    unsigned groupOf(DimmId d) const { return d / groupSize(); }
    /** The middle DIMM of group @p g (fewest average hops to the rest
     * of it): the group's polling proxy and sync master. */
    DimmId
    middleDimmOf(unsigned g) const
    {
        return static_cast<DimmId>(g * groupSize() + groupSize() / 2);
    }
    /** Does the host poll one proxy DIMM per group (P-P, P-P+Itrpt)? */
    bool
    proxyPolling() const
    {
        return pollingMode == PollingMode::Proxy ||
               pollingMode == PollingMode::ProxyInterrupt;
    }
    /** Channel that a DIMM sits on. */
    ChannelId channelOf(DimmId d) const
    {
        return static_cast<ChannelId>(d / dimmsPerChannel());
    }

    /** Is the rack layer (multi-host pooling) in play? */
    bool rackEnabled() const { return rack.hosts > 1; }
    /** DL groups owned by each host (numGroups() when single-host,
     * so hostOf() degenerates to 0). */
    unsigned
    groupsPerHost() const
    {
        return rack.hosts > 1 ? numGroups() / rack.hosts : numGroups();
    }
    /** Host that owns DL group @p g. */
    unsigned hostOfGroup(unsigned g) const { return g / groupsPerHost(); }
    /** Host that owns DIMM @p d. */
    unsigned hostOf(DimmId d) const { return hostOfGroup(groupOf(d)); }
    /** Gateway pool node (group id) anchoring host @p h's pooled
     * bridge lanes: its first group. */
    unsigned gatewayGroupOf(unsigned h) const { return h * groupsPerHost(); }

    /** Validate every cross-field invariant; fatal() on bad configs. */
    void validate() const;

    /** Named preset for the four paper configurations. */
    static SystemConfig preset(const std::string &name);

    /**
     * Build a config from a flat JSON document (see configs/ for the
     * schema): defaults first, then every "section.key" member applied
     * through set(). fatal()s on unknown keys or malformed values.
     */
    static SystemConfig fromFile(const std::string &path);
    static SystemConfig fromString(const std::string &text,
                                   const std::string &origin = "<config>");

    /**
     * Set one field by its dotted config key ("system.numDimms",
     * "link.topology", ...). Values use the same spellings as config
     * files; fatal()s on unknown keys with the keys of the section.
     */
    void set(const std::string &key, const std::string &value);

    /** Apply one Ramulator-style "-p section.key=value" override. */
    void applyOverride(const std::string &key_eq_value);

    /** Every config key, sorted, for tooling and error messages. */
    static std::vector<std::string> knownKeys();

    /**
     * The fully-resolved config as (dotted key, JSON token) pairs in
     * schema order: the source of truth for describe() and for the
     * config section embedded into stats JSON dumps.
     */
    std::vector<std::pair<std::string, std::string>>
    describeEntries() const;

    /**
     * Dump the fully-resolved config as a flat JSON document. The
     * output reparses through fromString() into an identical config,
     * so every run is reproducible from its own stats header.
     */
    std::string describe() const;

    /** Table V-style dump. */
    void print(std::ostream &os) const;
};

} // namespace dimmlink

#endif // DIMMLINK_COMMON_CONFIG_HH
