#include "dram/dram_controller.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/tracer.hh"

namespace dimmlink {
namespace dram {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

} // namespace

bool
schedulerIsFcfs(const std::string &name)
{
    if (name == "FCFS")
        return true;
    if (name != "FRFCFS")
        fatal("unknown DRAM scheduling policy '%s' (valid: FCFS, FRFCFS)",
              name.c_str());
    return false;
}

DramController::DramController(EventQueue &eq, std::string name,
                               const Timing &timing, unsigned num_ranks,
                               unsigned line_bytes,
                               stats::Group &stats_group,
                               const std::string &sched_policy)
    : Clocked(eq, std::move(name), timing.clkMHz),
      spec(timing),
      map(timing, num_ranks, line_bytes),
      ranks(num_ranks),
      banks(num_ranks * timing.banksPerRank()),
      fcfs(schedulerIsFcfs(sched_policy)),
      actWindow(num_ranks * timing.subChannels),
      nextCasAnyGroup(timing.subChannels, 0),
      nextCasSameGroup(num_ranks * timing.effGroups(), 0),
      dataBusFreeAt(timing.subChannels, 0),
      rankBlockedUntil(num_ranks, 0),
      refreshCursor(num_ranks, 0),
      statReads(stats_group.scalar("reads")),
      statWrites(stats_group.scalar("writes")),
      statActs(stats_group.scalar("activates")),
      statPres(stats_group.scalar("precharges")),
      statRowHits(stats_group.scalar("rowHits")),
      statRefreshes(stats_group.scalar("refreshes")),
      statLatency(stats_group.distribution("accessLatencyPs"))
{
    spec.check();
    nextRdCas.assign(ranks * spec.subChannels, 0);
    nextWrCas.assign(ranks * spec.subChannels, 0);
    nextActRank.assign(ranks * spec.subChannels, 0);
    nextActGroup.assign(ranks * spec.effGroups(), 0);
    if (auto *t = eq.tracer(); t && t->enabled(obs::CatDram)) {
        tr = t;
        trk = t->track(stats_group.name(), obs::CatDram);
        nmRd = t->intern("rd");
        nmWr = t->intern("wr");
        nmAct = t->intern("act");
        nmPre = t->intern("pre");
        nmRef = t->intern("refresh");
        nmFaw = t->intern("fawStall");
    }
    for (unsigned r = 0; r < ranks; ++r)
        scheduleRefresh(r);
}

bool
DramController::enqueue(DramRequest req)
{
    QueuedReq qr;
    qr.coord = map.decode(req.local);
    qr.arrival = now();
    qr.req = std::move(req);

    if (qr.req.isWrite) {
        if (writeQ.size() >= writeQCap)
            return false;
        // Write coalescing: a newer write to the same line replaces
        // the older one's data; we retire the older immediately.
        const Addr line_addr = qr.req.local & ~Addr(map.lineBytes() - 1);
        for (auto &other : writeQ) {
            const Addr other_line =
                other.req.local & ~Addr(map.lineBytes() - 1);
            if (other_line == line_addr) {
                if (other.req.done) {
                    auto done = std::move(other.req.done);
                    queue().scheduleIn(0, std::move(done),
                                       EventPriority::Delivery);
                }
                other = std::move(qr);
                return true;
            }
        }
        writeQ.push_back(std::move(qr));
        if (writeQ.size() >= writeHighWatermark)
            drainingWrites = true;
    } else {
        if (readQ.size() >= readQCap)
            return false;
        // Read-after-write forwarding from the write queue.
        const Addr line_addr = qr.req.local & ~Addr(map.lineBytes() - 1);
        for (const auto &w : writeQ) {
            const Addr w_line =
                w.req.local & ~Addr(map.lineBytes() - 1);
            if (w_line == line_addr) {
                auto done = std::move(qr.req.done);
                const Tick lat = spec.cyc(spec.tCL + spec.tBL);
                if (done)
                    queue().scheduleIn(lat, std::move(done),
                                       EventPriority::Delivery);
                statLatency.sample(static_cast<double>(lat));
                ++statReads;
                return true;
            }
        }
        readQ.push_back(std::move(qr));
    }
    scheduleIssue(clockEdge());
    return true;
}

void
DramController::scheduleIssue(Tick when)
{
    if (when < now())
        when = now();
    if (issueScheduled && issueAt <= when)
        return;
    if (issueScheduled)
        queue().deschedule(issueEventId);
    issueScheduled = true;
    issueAt = when;
    issueEventId = queue().schedule(
        when,
        [this] {
            issueScheduled = false;
            tick();
        },
        EventPriority::Control);
}

Tick
DramController::casReadyAt(const QueuedReq &qr, Tick now_t) const
{
    const Bank &bank = bankOf(qr.coord);
    const bool is_wr = qr.req.isWrite;
    const unsigned r = qr.coord.rank;

    Tick ready = bank.readyAt(is_wr ? DramCmd::Wr : DramCmd::Rd);
    ready = std::max(ready, nextCasAnyGroup[laneOf(qr.coord)]);
    // Without bank groups the tCCD L/S split collapses: tCCD_S (via
    // nextCasAnyGroup above) is the only CAS-to-CAS spacing.
    if (spec.hasBankGroups()) {
        const unsigned rg =
            r * spec.effGroups() + qr.coord.bankGroup;
        ready = std::max(ready, nextCasSameGroup[rg]);
    }
    ready = std::max(ready, rankBlockedUntil[r]);
    const unsigned lane = laneOf(qr.coord);
    ready = std::max(ready, is_wr ? nextWrCas[rankLane(r, lane)]
                                  : nextRdCas[rankLane(r, lane)]);

    // The data burst (starting tCL / tCWL after the CAS) must not
    // overlap the previous burst on this bank's data-bus lane.
    const Tick cas_to_data = spec.cyc(is_wr ? spec.tCWL : spec.tCL);
    const Tick bus_free = dataBusFreeAt[lane];
    if (bus_free > cas_to_data)
        ready = std::max(ready, bus_free - cas_to_data);

    return std::max(ready, now_t);
}

Tick
DramController::stepReadyAt(const QueuedReq &qr, Tick now_t,
                            bool &row_hit) const
{
    const Bank &bank = bankOf(qr.coord);
    row_hit = bank.isOpen() && bank.openRow() == qr.coord.row;
    if (row_hit)
        return casReadyAt(qr, now_t);
    if (!bank.isOpen())
        return actReadyAt(qr, now_t);
    return std::max({bank.readyAt(DramCmd::Pre),
                     rankBlockedUntil[qr.coord.rank], now_t});
}

std::size_t
DramController::pick(const std::deque<QueuedReq> &q, Tick now_t,
                     Tick &best_ready) const
{
    best_ready = maxTick;
    if (fcfs) {
        // Only the head of the queue may issue.
        if (q.empty())
            return npos;
        bool row_hit = false;
        best_ready = stepReadyAt(q.front(), now_t, row_hit);
        return best_ready <= now_t ? 0 : npos;
    }
    // FR-FCFS: the oldest request whose row is open and whose CAS is
    // ready issues first.
    std::size_t hit_idx = npos;
    for (std::size_t i = 0; i < q.size(); ++i) {
        bool row_hit = false;
        const Tick step_ready = stepReadyAt(q[i], now_t, row_hit);
        if (row_hit && step_ready <= now_t && hit_idx == npos)
            hit_idx = i;
        best_ready = std::min(best_ready, step_ready);
    }
    if (hit_idx != npos)
        return hit_idx;
    // No ready row hit: let the oldest request make progress if its
    // next step (ACT or PRE) is ready now.
    for (std::size_t i = 0; i < q.size(); ++i) {
        bool row_hit = false;
        if (stepReadyAt(q[i], now_t, row_hit) <= now_t)
            return i;
    }
    return npos;
}

Tick
DramController::actReadyAt(const QueuedReq &qr, Tick now_t) const
{
    const Bank &bank = bankOf(qr.coord);
    const unsigned r = qr.coord.rank;
    const unsigned rl = rankLane(r, laneOf(qr.coord));
    Tick ready = bank.readyAt(DramCmd::Act);
    ready = std::max(ready, rankBlockedUntil[r]);
    ready = std::max(ready, nextActRank[rl]);
    if (spec.hasBankGroups()) {
        const unsigned rg =
            r * spec.effGroups() + qr.coord.bankGroup;
        ready = std::max(ready, nextActGroup[rg]);
    }
    // tFAW == 0: the standard has no four-activate window.
    if (spec.tFAW > 0 && actWindow[rl].size() >= 4)
        ready = std::max(ready,
                         actWindow[rl].front() + spec.cyc(spec.tFAW));
    return std::max(ready, now_t);
}

bool
DramController::advance(QueuedReq &qr, Tick now_t)
{
    Bank &bank = bankOf(qr.coord);
    const unsigned r = qr.coord.rank;
    const unsigned rg = r * spec.effGroups() + qr.coord.bankGroup;

    if (bank.isOpen() && bank.openRow() == qr.coord.row) {
        // Row hit: issue the CAS. Writes may carry extra burst clocks
        // for on-die write CRC (DDR5).
        const bool is_wr = qr.req.isWrite;
        const Tick data_start =
            now_t + spec.cyc(is_wr ? spec.tCWL : spec.tCL);
        const Tick data_end =
            data_start +
            spec.cyc(spec.tBL + (is_wr ? spec.wrCrcCycles : 0));

        const unsigned lane = laneOf(qr.coord);
        if (is_wr) {
            bank.write(now_t, spec);
            ++statWrites;
            // Write-to-read turnaround on this rank's lane.
            const unsigned rl = rankLane(r, lane);
            nextRdCas[rl] = std::max(
                nextRdCas[rl], data_end + spec.cyc(spec.tWTRl));
        } else {
            bank.read(now_t, spec);
            ++statReads;
            // Read-to-write turnaround (direction change on this
            // lane's data bus, so every rank sharing the lane waits).
            for (unsigned rr = 0; rr < ranks; ++rr) {
                const unsigned rl = rankLane(rr, lane);
                nextWrCas[rl] = std::max(
                    nextWrCas[rl],
                    data_end > spec.cyc(spec.tCWL)
                        ? data_end - spec.cyc(spec.tCWL)
                              + spec.cyc(spec.tRTW)
                        : spec.cyc(spec.tRTW));
            }
        }
        nextCasAnyGroup[lane] = now_t + spec.cyc(spec.tCCDs);
        if (spec.hasBankGroups())
            nextCasSameGroup[rg] = now_t + spec.cyc(spec.tCCDl);
        dataBusFreeAt[lane] = data_end;

        statLatency.sample(static_cast<double>(data_end - qr.arrival));
        if (tr)
            tr->complete(trk, is_wr ? nmWr : nmRd, now_t,
                         data_end - now_t);
        if (qr.req.done) {
            queue().schedule(data_end, std::move(qr.req.done),
                             EventPriority::Delivery);
        }
        return true;
    }

    if (!bank.isOpen()) {
        bank.activate(now_t, qr.coord.row, spec);
        ++statActs;
        const unsigned rl = rankLane(r, laneOf(qr.coord));
        if (tr) {
            tr->instant(trk, nmAct, now_t, qr.coord.row);
            // The ACT was tFAW-bound exactly when the fourth-previous
            // ACT plus tFAW lands on this issue tick (issue legality
            // guarantees <=; equality means the window was binding).
            if (spec.tFAW > 0 && actWindow[rl].size() >= 4 &&
                actWindow[rl].front() + spec.cyc(spec.tFAW) == now_t)
                tr->instant(trk, nmFaw, now_t, r);
        }
        nextActRank[rl] = now_t + spec.cyc(spec.tRRDs);
        if (spec.hasBankGroups())
            nextActGroup[rg] = now_t + spec.cyc(spec.tRRDl);
        if (spec.tFAW > 0) {
            actWindow[rl].push_back(now_t);
            if (actWindow[rl].size() > 4)
                actWindow[rl].pop_front();
        }
        return false;
    }

    // Row conflict: precharge.
    bank.precharge(now_t, spec);
    ++statPres;
    if (tr)
        tr->instant(trk, nmPre, now_t, qr.coord.row);
    return false;
}

void
DramController::tick()
{
    const Tick now_t = now();

    // Choose the active queue: reads have priority unless the write
    // queue is draining or reads are empty.
    if (drainingWrites && writeQ.size() <= writeLowWatermark)
        drainingWrites = false;
    const bool serve_writes =
        (drainingWrites || readQ.empty()) && !writeQ.empty();
    std::deque<QueuedReq> &q = serve_writes ? writeQ : readQ;

    Tick best_ready = maxTick;
    if (!q.empty()) {
        const std::size_t idx = pick(q, now_t, best_ready);
        if (idx != npos) {
            QueuedReq &qr = q[static_cast<std::size_t>(idx)];
            const bool was_full =
                readQ.size() >= readQCap || writeQ.size() >= writeQCap;
            // Row hits retire the request; ACT/PRE leave it queued.
            const bool hit = advance(qr, now_t);
            if (hit) {
                q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
                if (was_full && onUnblock)
                    queue().scheduleIn(0, onUnblock,
                                       EventPriority::Control);
            }
            best_ready = now_t + clock().period();
        }
    }

    // Also account for the idle queue so its requests wake us up.
    std::deque<QueuedReq> &other = serve_writes ? readQ : writeQ;
    if (!other.empty()) {
        Tick other_ready = maxTick;
        pick(other, now_t, other_ready);
        best_ready = std::min(best_ready, other_ready);
    }

    if (pending() > 0 && best_ready != maxTick)
        scheduleIssue(std::max(best_ready, now_t + clock().period()));
}

void
DramController::scheduleRefresh(unsigned rank)
{
    queue().scheduleIn(spec.cyc(spec.tREFI),
                       [this, rank] { doRefresh(rank); },
                       EventPriority::Control);
}

void
DramController::doRefresh(unsigned rank)
{
    if (spec.perBankRefresh) {
        // Same-bank refresh (REFsb / REFpb): each tREFI command
        // refreshes one bank round-robin for tRFCpb while the rest of
        // the rank keeps serving. stepReadyAt() sees the refreshing
        // bank's busy-until through Bank::readyAt, so no rank-wide
        // block is needed.
        const unsigned nb = spec.banksPerRank();
        const unsigned b = refreshCursor[rank];
        refreshCursor[rank] = (b + 1) % nb;
        const Tick until = now() + spec.cyc(spec.tRFCpb);
        banks[rank * nb + b].refresh(until);
        ++statRefreshes;
        if (tr)
            tr->complete(trk, nmRef, now(), until - now());
        if (pending() > 0)
            scheduleIssue(clockEdge());
        scheduleRefresh(rank);
        return;
    }
    const Tick until = now() + spec.cyc(spec.tRFC);
    for (unsigned b = 0; b < spec.banksPerRank(); ++b)
        banks[rank * spec.banksPerRank() + b].refresh(until);
    rankBlockedUntil[rank] = until;
    ++statRefreshes;
    if (tr)
        tr->complete(trk, nmRef, now(), until - now());
    if (pending() > 0)
        scheduleIssue(until);
    scheduleRefresh(rank);
}

} // namespace dram
} // namespace dimmlink
