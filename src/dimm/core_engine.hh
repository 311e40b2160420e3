/**
 * @file
 * The op-stream engine every core runs: it executes one software
 * thread's operation stream with a bounded window of outstanding
 * memory requests, fences, barriers and broadcasts, and serves
 * requests through the reliability layer (docs/serving.md): arrival
 * waits, load shedding, deadlines, circuit breaker and backoff,
 * hedging, and exactly-once disposition.
 *
 * A core kind subclasses it and supplies only what differs between
 * machines: how one memory reference is issued, how a barrier is
 * reached, and how a broadcast is sent. NmpCore (dimm/nmp_core.hh)
 * and the host baseline's HostCore (system/host_runner.cc) are the
 * two kinds.
 */

#ifndef DIMMLINK_DIMM_CORE_ENGINE_HH
#define DIMMLINK_DIMM_CORE_ENGINE_HH

#include <functional>
#include <memory>
#include <string>

#include "common/config.hh"
#include "common/stats.hh"
#include "dimm/op.hh"
#include "dimm/reliability.hh"
#include "sim/clocked.hh"

namespace dimmlink {

namespace idc {
class Fabric;
} // namespace idc
namespace obs {
class Tracer;
} // namespace obs

class CoreEngine : public Clocked
{
  public:
    /** The pace of one core kind. */
    struct Pace
    {
        double computeIpc = 1.0; ///< Instructions per Compute cycle.
        /** Memory refs issued per cycle: a finished batch of n refs
         * costs max(1, n / issueIpc) cycles. */
        double issueIpc = 1.0;
        unsigned mshrs = 16; ///< Outstanding-request window.
    };

    /**
     * The reliability knobs come from @p cfg.serve (all zero leaves
     * the layer inert). The circuit breaker asks @p fabric whether
     * requests from host @p my_host reach their target host; with no
     * fabric (the host baseline) it never trips. @p cfg and @p fabric
     * outlive the core.
     */
    CoreEngine(EventQueue &eq, const std::string &name, double freq_mhz,
               const Pace &pace, const SystemConfig &cfg,
               const idc::Fabric *fabric, unsigned my_host,
               stats::Registry &reg);

    /** Launch a thread; @p on_done fires after its Done op retires. */
    void run(ThreadId tid, std::unique_ptr<ThreadProgram> prog,
             std::function<void()> on_done);

    /** Abort the current thread (migration-by-restart, §IV-B). */
    void cancel();

    bool busy() const { return state != State::Idle; }
    ThreadId threadId() const { return tid_; }

    /** Issued slots disowned by an abort or a lost hedge race whose
     * responses have not landed yet. */
    unsigned staleResponses() const { return stale; }

  protected:
    /**
     * Issue @p ref. A ref whose response is still pending takes its
     * completion from expectResponse() and hands it to the memory
     * system; a ref served at issue (a pipelined cache hit) returns
     * without calling it.
     */
    virtual void issueRef(const MemRef &ref) = 0;

    /** Reach the kernel-wide barrier; @p release fires when it
     * opens. */
    virtual void arriveBarrier(std::function<void()> release) = 0;

    /** Broadcast @p bytes at @p addr to every DIMM. */
    virtual void broadcast(Addr addr, std::uint64_t bytes,
                           EventCallback done) = 0;

    /** The completion of one pending ref. Responses carry the issue
     * epoch of their fanout: an abort or a lost hedge race disowns
     * in-flight requests by bumping the epoch, and mismatched
     * responses only free their MSHR slot. */
    struct Response
    {
        CoreEngine *core;
        std::uint64_t gen;
        std::uint64_t epoch;
        unsigned side;
        bool remote;

        void operator()() const;
    };
    static_assert(sizeof(Response) <= EventCallback::inlineCapacity,
                  "a ref's completion must not allocate");

    /** Count one pending response (@p remote: attributed to another
     * DIMM) and return the completion that retires it. */
    Response
    expectResponse(bool remote)
    {
        ++outstanding;
        ++outSide[issueSide];
        if (remote) {
            ++remoteOutstanding;
            ++remoteSide[issueSide];
        }
        return Response{this, runGeneration, issueEpoch, issueSide,
                        remote};
    }

    const SystemConfig &cfg;

  private:
    enum class State {
        Idle,
        Ready,     ///< advance() is driving the op stream.
        Computing, ///< Busy for a compute (or issue-debt) interval.
        StallMshr, ///< Out of MSHRs; waiting for any response.
        Fence,     ///< Draining all outstanding requests.
        Barrier,   ///< Waiting for barrier release.
        Broadcast, ///< Waiting for broadcast completion.
        Waiting,   ///< Idle until an open-loop request's arrival.
        Backoff,   ///< Delaying a retry after a breaker fast-fail.
        HedgeFence,///< Racing primary vs hedge fanouts.
    };

    void advance();
    void issueOne(const MemRef &ref);
    bool issueOpRefs();
    void onResponse(bool was_remote, unsigned side);
    void onStaleResponse();
    void enterStall(State s);
    void exitStall();
    void finishOp();
    void resetThread();

    bool reqStartOp();
    void abortInFlight();
    void launchHedge();
    void settleHedge(unsigned winner);

    const Pace pace;
    const serve_rel::Params rel;
    const idc::Fabric *fabric;
    const unsigned myHost;

    State state = State::Idle;
    std::unique_ptr<ThreadProgram> prog;
    ThreadId tid_ = 0;
    std::function<void()> onDone;
    std::uint64_t runGeneration = 0;

    Op op;
    std::size_t refIdx = 0;
    bool haveOp = false;
    std::uint64_t issueDebt = 0;

    unsigned outstanding = 0;
    unsigned remoteOutstanding = 0;
    Tick stallStart = 0;
    bool stallRemote = false;

    /** Tick this thread's run() began (serving arrivals are relative
     * to it) and the in-flight request's latency-clock start. */
    Tick runStart = 0;
    Tick reqStart = 0;

    // --- Request-level reliability state.
    serve_rel::Backoff backoff;
    serve_rel::CircuitBreaker breaker;
    /** MSHR slots leaked by aborted/hedge-losing fanouts: their
     * responses are still in flight (and still occupy MSHRs, so the
     * issue cap counts them) but no longer gate fences. */
    unsigned stale = 0;
    /** Bumped whenever in-flight responses are disowned; a response
     * whose captured epoch mismatches takes the stale path. */
    std::uint64_t issueEpoch = 0;
    /** Identifies the current request to deadline/hedge timers. */
    std::uint64_t reqSeq = 0;
    bool reqInProgress = false;
    bool reqAborted = false;
    bool shedChecked = false;
    bool deadlineArmed = false;
    bool reqIsTrial = false;   ///< Breaker half-open trial request.
    int breakerTarget = -1;    ///< Host the breaker admitted us to.
    unsigned attempts = 0;     ///< Fast-fail retries so far.
    bool hedgeLaunched = false;
    unsigned issueSide = 0;    ///< 0 = primary, 1 = hedge fanout.
    unsigned outSide[2] = {0, 0};
    unsigned remoteSide[2] = {0, 0};

    stats::Scalar &statInstructions;
    stats::Scalar &statMemRefs;
    stats::Scalar &statComputePs;
    stats::Scalar &statStallLocal;
    stats::Scalar &statStallRemote;
    stats::Scalar &statBarrierPs;
    stats::Scalar &statBroadcasts;
    stats::Scalar &statRequests;
    stats::Scalar &statReqWaitPs;
    stats::Scalar &relDeadlineMiss;
    stats::Scalar &relShed;
    stats::Scalar &relRetries;
    stats::Scalar &relFastFails;
    stats::Scalar &relFailed;
    stats::Scalar &relHedges;
    stats::Scalar &relHedgeWins;
    /** The core's stat group, kept for the request-latency histogram
     * (serve.latBuckets buckets, 16 KiB by default). The first
     * ReqStart op creates it; cores that never serve a request do not
     * pay for it. */
    stats::Group &statGroup;
    stats::Histogram *reqHist = nullptr;

    obs::Tracer *tr = nullptr; ///< Null unless core tracing is on.
    std::uint32_t trk = 0;
    std::uint16_t nmCompute = 0, nmStallLocal = 0, nmStallRemote = 0,
                  nmBarrier = 0, nmBroadcast = 0;
};

} // namespace dimmlink

#endif // DIMMLINK_DIMM_CORE_ENGINE_HH
