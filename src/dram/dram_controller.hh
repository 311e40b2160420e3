/**
 * @file
 * A cycle-level memory controller with FR-FCFS (or strict FCFS)
 * scheduling, write draining, per-rank tFAW tracking, CAS-to-CAS bus
 * constraints and refresh. The controller is standard-agnostic: every constraint is
 * read from the Timing table and degrades cleanly when a standard
 * lacks it (tFAW=0 means no activate window, bankGroups=0 collapses
 * the tCCD/tRRD L/S split, perBankRefresh refreshes one bank per
 * REFsb instead of blocking the rank, subChannels>1 runs independent
 * data-bus lanes). One controller instance models the DRAM devices of
 * one DIMM (driven by the DIMM's Local MC in NMP mode, or by a host
 * channel in Host-Access mode).
 */

#ifndef DIMMLINK_DRAM_DRAM_CONTROLLER_HH
#define DIMMLINK_DRAM_DRAM_CONTROLLER_HH

#include <deque>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/address_map.hh"
#include "dram/bank.hh"
#include "dram/timing.hh"
#include "sim/clocked.hh"
#include "sim/event_callback.hh"

namespace dimmlink {

namespace obs {
class Tracer;
} // namespace obs

namespace dram {

/** One line-sized DRAM access. */
struct DramRequest
{
    Addr local = 0;
    bool isWrite = false;
    /** Invoked when the data burst completes. EventCallback (not
     * std::function): completions are scheduled directly into the
     * event kernel, and the SBO representation keeps the per-request
     * hot path allocation-free even for large captures. */
    EventCallback done;
};

/** A request waiting in a controller queue, as scheduling sees it. */
struct QueuedReq
{
    DramRequest req;
    DramCoord coord;
    Tick arrival;
};

/**
 * Parse a system.dramScheduler name: true for "FCFS", false for
 * "FRFCFS"; fatal()s naming both for anything else.
 */
bool schedulerIsFcfs(const std::string &name);

/**
 * The controller. Accepts line-granularity requests via enqueue() and
 * calls each request's completion callback when its burst finishes.
 */
class DramController : public Clocked
{
  public:
    DramController(EventQueue &eq, std::string name, const Timing &timing,
                   unsigned num_ranks, unsigned line_bytes,
                   stats::Group &stats_group,
                   const std::string &sched_policy = "FRFCFS");

    /**
     * Queue a request. @return false when the read or write queue is
     * full; the caller must retry (it is notified via onUnblock).
     */
    bool enqueue(DramRequest req);

    /** True when a request of the given kind would be rejected. */
    bool
    full(bool is_write) const
    {
        return is_write ? writeQ.size() >= writeQCap
                        : readQ.size() >= readQCap;
    }

    /** Registered by the owner; called when queue space frees up. */
    void setUnblockCallback(std::function<void()> cb)
    {
        onUnblock = std::move(cb);
    }

    /** Outstanding requests (both queues + in flight). */
    std::size_t pending() const
    {
        return readQ.size() + writeQ.size();
    }

    bool idle() const { return pending() == 0; }

    unsigned readQueueCapacity() const { return readQCap; }

    const Timing &timing() const { return spec; }

  private:
    /**
     * Earliest tick the next command toward @p qr (CAS on a row hit,
     * ACT on a closed bank, PRE on a conflict) could issue, never
     * before @p now. Sets @p row_hit when the bank has qr's row open.
     */
    Tick stepReadyAt(const QueuedReq &qr, Tick now, bool &row_hit) const;

    /**
     * Pick the request in @p q whose next command should issue at
     * @p now, or npos when none is ready. Sets @p best_ready to the
     * earliest tick at which any considered request could take its
     * next step (maxTick when the queue is empty); the wakeup is
     * scheduled from it.
     */
    std::size_t pick(const std::deque<QueuedReq> &q, Tick now,
                     Tick &best_ready) const;

    /** Schedule (or reschedule) the issue event at tick @p when. */
    void scheduleIssue(Tick when);

    /** Main scheduling loop: issue the best legal command now. */
    void tick();

    /** Earliest tick the CAS for @p qr could issue, given bank state. */
    Tick casReadyAt(const QueuedReq &qr, Tick now) const;

    /** Earliest tick an ACT for @p qr could issue (tFAW, tRRD, ...). */
    Tick actReadyAt(const QueuedReq &qr, Tick now) const;

    /** Issue ACT/PRE progress toward @p qr; true if CAS was issued. */
    bool advance(QueuedReq &qr, Tick now);

    /** Kick the per-rank refresh machinery. */
    void scheduleRefresh(unsigned rank);
    void doRefresh(unsigned rank);

    Bank &bankOf(const DramCoord &c)
    {
        return banks[c.flatBank(spec)];
    }
    const Bank &bankOf(const DramCoord &c) const
    {
        return banks[c.flatBank(spec)];
    }

    /** Data-bus lane serving @p c (trivially lane 0 with a single
     * data bus). A whole bank group lives on one lane — sub-channels
     * are independent halves of the device, not an interleave — and a
     * groupless standard stripes flat banks across lanes instead. */
    unsigned
    laneOf(const DramCoord &c) const
    {
        if (spec.subChannels == 1)
            return 0;
        return (spec.hasBankGroups() ? c.bankGroup : c.bank) %
               spec.subChannels;
    }

    /** Index into the per-(rank, lane) constraint tables. Sub-channels
     * (DDR5) and pseudo-channels (HBM2) have independent command and
     * data paths, so tFAW / tRRD / turnaround apply per lane, not per
     * rank; with one lane this degenerates to plain rank indexing. */
    unsigned
    rankLane(unsigned rank, unsigned lane) const
    {
        return rank * spec.subChannels + lane;
    }

    Timing spec;
    LocalAddressMap map;
    unsigned ranks;
    std::vector<Bank> banks;
    /** Strict in-order service instead of FR-FCFS. */
    const bool fcfs;

    std::deque<QueuedReq> readQ;
    std::deque<QueuedReq> writeQ;
    unsigned readQCap = 64;
    unsigned writeQCap = 64;
    unsigned writeHighWatermark = 48;
    unsigned writeLowWatermark = 16;
    bool drainingWrites = false;

    /** Sliding window of the last four ACT ticks (tFAW), per
     * (rank, lane); unused when the standard has no window (tFAW ==
     * 0). */
    std::vector<std::deque<Tick>> actWindow;
    /** Earliest next CAS per (same-bank-group? tCCD_L : tCCD_S).
     * tCCD_S paces each lane's command stream independently —
     * sub-channels have their own command/data paths. */
    std::vector<Tick> nextCasAnyGroup; ///< indexed by lane.
    std::vector<Tick> nextCasSameGroup; ///< indexed rank*effGroups.
    /** Turnaround constraints (tWTR / tRTW), per (rank, lane). */
    std::vector<Tick> nextRdCas;
    std::vector<Tick> nextWrCas;
    /** ACT-to-ACT spacing (tRRD_S per (rank, lane), tRRD_L per bank
     * group). */
    std::vector<Tick> nextActRank;
    std::vector<Tick> nextActGroup;
    /** Per-lane data-bus busy-until (one burst at a time per
     * sub-channel; single entry for a one-bus standard). */
    std::vector<Tick> dataBusFreeAt;
    /** Bus turnaround bookkeeping. */
    Tick lastReadEnd = 0;
    Tick lastWriteEnd = 0;
    /** All-bank refresh blocks the whole rank; REFsb leaves this at
     * zero and cycles refreshCursor over the rank's banks instead. */
    std::vector<Tick> rankBlockedUntil;
    std::vector<unsigned> refreshCursor;

    bool issueScheduled = false;
    Tick issueAt = 0;
    std::uint64_t issueEventId = 0;

    std::function<void()> onUnblock;

    stats::Scalar &statReads;
    stats::Scalar &statWrites;
    stats::Scalar &statActs;
    stats::Scalar &statPres;
    stats::Scalar &statRowHits;
    stats::Scalar &statRefreshes;
    stats::Distribution &statLatency;

    obs::Tracer *tr = nullptr; ///< Null unless dram tracing is on.
    std::uint32_t trk = 0;
    std::uint16_t nmRd = 0, nmWr = 0, nmAct = 0, nmPre = 0,
                  nmRef = 0, nmFaw = 0;
};

} // namespace dram
} // namespace dimmlink

#endif // DIMMLINK_DRAM_DRAM_CONTROLLER_HH
