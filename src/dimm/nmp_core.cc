#include "dimm/nmp_core.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/log.hh"
#include "obs/tracer.hh"

namespace dimmlink {

NmpCore::NmpCore(EventQueue &eq, const std::string &name, DimmId dimm_,
                 CoreId core_, const SystemConfig &cfg_, LocalMc &mc_,
                 Cache *l1_, Cache *l2_, stats::Registry &reg)
    : Clocked(eq, name, cfg_.dimm.coreFreqMHz),
      dimm(dimm_),
      core(core_),
      cfg(cfg_),
      mc(mc_),
      l1(l1_),
      l2(l2_),
      statInstructions(reg.group(name).scalar("instructions")),
      statMemRefs(reg.group(name).scalar("memRefs")),
      statRemoteRefs(reg.group(name).scalar("remoteRefs")),
      statComputePs(reg.group(name).scalar("computePs")),
      statStallLocal(reg.group(name).scalar("stallLocalPs")),
      statStallRemote(reg.group(name).scalar("stallRemotePs")),
      statBarrierPs(reg.group(name).scalar("barrierPs")),
      statBroadcasts(reg.group(name).scalar("broadcasts")),
      statRequests(reg.group(name).scalar("requests")),
      statReqWaitPs(reg.group(name).scalar("reqWaitPs")),
      relDeadlineMiss(reg.group(name).scalar("reqDeadlineMisses")),
      relShed(reg.group(name).scalar("reqShed")),
      relRetries(reg.group(name).scalar("reqRetries")),
      relFastFails(reg.group(name).scalar("reqFastFails")),
      relFailed(reg.group(name).scalar("reqFailed")),
      relHedges(reg.group(name).scalar("reqHedges")),
      relHedgeWins(reg.group(name).scalar("reqHedgeWins")),
      statGroup(reg.group(name))
{
    if (auto *t = eq.tracer(); t && t->enabled(obs::CatCore)) {
        tr = t;
        trk = t->track(name, obs::CatCore);
        nmCompute = t->intern("compute");
        nmStallLocal = t->intern("stallLocal");
        nmStallRemote = t->intern("stallRemote");
        nmBarrier = t->intern("barrier");
        nmBroadcast = t->intern("broadcast");
    }
}

void
NmpCore::run(ThreadId tid, std::unique_ptr<ThreadProgram> program,
             std::function<void()> on_done)
{
    if (state != State::Idle)
        panic("%s: run() while core is busy", name().c_str());
    ++runGeneration;
    prog = std::move(program);
    tid_ = tid;
    onDone = std::move(on_done);
    haveOp = false;
    refIdx = 0;
    issueDebt = 0;
    outstanding = 0;
    remoteOutstanding = 0;
    runStart = now();
    reqStart = now();
    stale = 0;
    reqInProgress = false;
    reqAborted = false;
    reqIsTrial = false;
    breakerTarget = -1;
    hedgeLaunched = false;
    issueSide = 0;
    outSide[0] = outSide[1] = 0;
    remoteSide[0] = remoteSide[1] = 0;
    if (rel)
        backoff.reseed(cfg.serve.seed, tid);
    state = State::Ready;
    // Start on the next clock edge.
    const auto gen = runGeneration;
    queue().schedule(clockEdge(),
                     [this, gen] {
                         if (gen == runGeneration)
                             advance();
                     },
                     EventPriority::Core);
}

void
NmpCore::cancel()
{
    ++runGeneration;
    state = State::Idle;
    prog.reset();
    onDone = nullptr;
    haveOp = false;
    outstanding = 0;
    remoteOutstanding = 0;
    issueDebt = 0;
    stale = 0;
    reqInProgress = false;
    reqAborted = false;
    outSide[0] = outSide[1] = 0;
    remoteSide[0] = remoteSide[1] = 0;
}

void
NmpCore::finishOp()
{
    haveOp = false;
    refIdx = 0;
}

void
NmpCore::enterStall(State s)
{
    state = s;
    stallStart = now();
    stallRemote = remoteOutstanding > 0;
}

void
NmpCore::exitStall()
{
    const Tick dt = now() - stallStart;
    if (stallRemote)
        statStallRemote += static_cast<double>(dt);
    else
        statStallLocal += static_cast<double>(dt);
    if (tr && dt > 0)
        tr->complete(trk, stallRemote ? nmStallRemote : nmStallLocal,
                     stallStart, dt);
    state = State::Ready;
}

void
NmpCore::onResponse(bool was_remote, unsigned side)
{
    if (outstanding == 0)
        panic("%s: response with no outstanding request",
              name().c_str());
    --outstanding;
    if (was_remote) {
        if (remoteOutstanding == 0)
            panic("%s: remote response accounting underflow",
                  name().c_str());
        --remoteOutstanding;
    }
    if (rel) {
        if (outSide[side] == 0)
            panic("%s: side accounting underflow", name().c_str());
        --outSide[side];
        if (was_remote)
            --remoteSide[side];
    }

    if (state == State::StallMshr) {
        exitStall();
        advance();
    } else if (state == State::Fence && outstanding == 0) {
        exitStall();
        advance();
    } else if (state == State::HedgeFence && outSide[side] == 0) {
        settleHedge(side);
    }
}

/** A disowned response landed: its request was aborted (or lost a
 * hedge race), so it frees an MSHR slot and nothing else. */
void
NmpCore::onStaleResponse()
{
    if (stale == 0)
        panic("%s: stale response accounting underflow",
              name().c_str());
    --stale;
    if (state == State::StallMshr) {
        exitStall();
        advance();
    }
}

void
NmpCore::issueRef(const MemRef &ref)
{
    ++statMemRefs;
    ++statInstructions;
    const DimmId home = homeOf ? homeOf(ref.addr) : dimm;
    const bool remote = home != dimm;
    if (remote)
        ++statRemoteRefs;
    if (probe)
        probe(tid_, home, ref.bytes);

    const auto gen = runGeneration;
    // Responses carry the issue epoch of their fanout: an abort or a
    // lost hedge race disowns in-flight requests by bumping the
    // epoch, and mismatched responses only free their MSHR slot.
    auto response = [this, gen, epoch = issueEpoch, side = issueSide,
                     remote] {
        if (gen != runGeneration)
            return;
        if (epoch != issueEpoch) {
            onStaleResponse();
            return;
        }
        onResponse(remote, side);
    };
    const auto noteIssued = [this, remote] {
        ++outstanding;
        if (remote)
            ++remoteOutstanding;
        if (rel) {
            ++outSide[issueSide];
            if (remote)
                ++remoteSide[issueSide];
        }
    };

    // Software-assisted coherence: shared read-write data bypasses the
    // NMP caches entirely (Section III-E).
    const bool cacheable = ref.cls != DataClass::SharedRW && l1;
    if (!cacheable) {
        noteIssued();
        mc.access(ref.addr, ref.bytes, ref.isWrite,
                  std::move(response));
        return;
    }

    const unsigned line = l1->lineBytes();
    const Addr line_addr = roundDown(ref.addr, line);
    const bool shared_ro = ref.cls == DataClass::SharedRO;

    const Cache::Result r1 = l1->access(ref.addr, ref.isWrite,
                                        shared_ro);
    if (r1.hit)
        return; // Pipelined L1 hit.

    if (r1.writeback) {
        // Dirty victim drops into the shared L2 (or memory).
        if (l2) {
            const Cache::Result rwb = l2->access(r1.victimAddr, true);
            if (rwb.writeback)
                mc.postedWrite(rwb.victimAddr, line);
        } else {
            mc.postedWrite(r1.victimAddr, line);
        }
    }

    if (l2) {
        // Fill path: the L2 allocation is clean; dirtiness arrives
        // only through L1 writebacks.
        const Cache::Result r2 = l2->access(ref.addr, false,
                                            shared_ro);
        if (r2.hit) {
            noteIssued();
            queue().scheduleIn(cfg.dimm.l2LatencyPs,
                               std::move(response),
                               EventPriority::Delivery);
            return;
        }
        if (r2.writeback)
            mc.postedWrite(r2.victimAddr, line);
    }

    // Miss to memory: fetch the whole line from its home DIMM.
    noteIssued();
    mc.access(line_addr, line, /*is_write=*/false,
              std::move(response));
}

/**
 * Dispatch the current ReqStart op under the reliability engine.
 * Re-entrant: arrival waits and retry backoffs park the core and
 * re-enter the same op, with the phase flags recording what already
 * ran. Returns true when the op retired (caller continues the op
 * loop) and false when the core parked waiting for a timer.
 */
bool
NmpCore::relReqStart()
{
    if (reqAborted) {
        // An abort raced ahead of this re-entry; just consume it.
        finishOp();
        return true;
    }
    if (!reqInProgress) {
        reqInProgress = true;
        shedChecked = false;
        deadlineArmed = false;
        reqIsTrial = false;
        breakerTarget = -1;
        attempts = 0;
        ++reqSeq;
        reqStart = op.tickArg == Op::reqNow ? now()
                                            : runStart + op.tickArg;
    }
    if (reqStart > now()) {
        statReqWaitPs += static_cast<double>(reqStart - now());
        state = State::Waiting;
        const auto gen = runGeneration;
        queue().schedule(reqStart,
                         [this, gen] {
                             if (gen != runGeneration ||
                                 state != State::Waiting)
                                 return;
                             state = State::Ready;
                             advance(); // Re-enters this op.
                         },
                         EventPriority::Core);
        return false;
    }
    if (!shedChecked) {
        shedChecked = true;
        // Admission control: the shed horizon is the arrival of the
        // serve.maxInflight'th later request on this thread, so
        // being picked up past it means the queue is at least that
        // deep -- shed instead of serving a hopeless straggler.
        if (op.tickArg2 != 0 && now() >= runStart + op.tickArg2) {
            ++relShed;
            reqAborted = true;
            finishOp();
            return true;
        }
    }
    if (!deadlineArmed && rel->deadlinePs > 0) {
        deadlineArmed = true;
        const Tick dl = reqStart + rel->deadlinePs;
        if (dl <= now()) {
            // Queueing already ate the whole budget.
            ++relDeadlineMiss;
            reqAborted = true;
            finishOp();
            return true;
        }
        const auto gen = runGeneration;
        const auto seq = reqSeq;
        queue().schedule(dl,
                         [this, gen, seq] {
                             if (gen != runGeneration ||
                                 seq != reqSeq)
                                 return;
                             if (!reqInProgress || reqAborted)
                                 return;
                             ++relDeadlineMiss;
                             abortInFlight();
                         },
                         EventPriority::Core);
    }
    // Circuit breaker: fail fast on cross-host requests whose rack
    // routes are all down, with bounded backed-off retries.
    if (op.homeDimm >= 0 && hostView) {
        const unsigned target =
            cfg.hostOf(static_cast<DimmId>(op.homeDimm));
        if (target != myHost) {
            using Decision = serve_rel::CircuitBreaker::Decision;
            const bool up = hostView->routeUp(myHost, target);
            const Decision d = breaker.admit(target, up, now(),
                                             rel->breakerReopenPs);
            if (d == Decision::FastFail) {
                ++relFastFails;
                if (attempts >= rel->maxRetries) {
                    ++relFailed;
                    reqAborted = true;
                    finishOp();
                    return true;
                }
                ++attempts;
                ++relRetries;
                state = State::Backoff;
                const auto gen = runGeneration;
                const auto seq = reqSeq;
                queue().scheduleIn(
                    backoff.delay(rel->backoffPs, attempts),
                    [this, gen, seq] {
                        if (gen != runGeneration || seq != reqSeq)
                            return;
                        if (state != State::Backoff)
                            return;
                        state = State::Ready;
                        advance(); // Re-enters this op.
                    },
                    EventPriority::Core);
                return false;
            }
            reqIsTrial = d == Decision::AdmitTrial;
            breakerTarget = static_cast<int>(target);
        }
    }
    finishOp();
    return true;
}

/** Abort the in-flight request (deadline miss): disown whatever it
 * has outstanding and unwind whichever wait state the core is in.
 * The caller bumps the relevant counter. */
void
NmpCore::abortInFlight()
{
    reqAborted = true;
    if (breakerTarget >= 0 && reqIsTrial) {
        breaker.onOutcome(static_cast<unsigned>(breakerTarget), false,
                          now(), rel->breakerReopenPs);
        reqIsTrial = false;
    }
    if (outstanding > 0) {
        stale += outstanding;
        outstanding = 0;
        remoteOutstanding = 0;
        outSide[0] = outSide[1] = 0;
        remoteSide[0] = remoteSide[1] = 0;
        ++issueEpoch;
    }
    switch (state) {
      case State::StallMshr:
      case State::Fence:
      case State::HedgeFence:
        exitStall();
        advance();
        break;
      case State::Backoff:
      case State::Waiting:
        state = State::Ready;
        advance();
        break;
      default:
        // Computing: the abort flag short-circuits the
        // request's remaining ops as each one comes up.
        break;
    }
}

/** The hedge timer fired mid-race: duplicate the batch to the
 * replica refs and let the first side to fully complete win. */
void
NmpCore::launchHedge()
{
    hedgeLaunched = true;
    ++relHedges;
    // The hedge fanout gets a dedicated issue window past the MSHR
    // cap: queueing it behind its own stuck primary would defeat it.
    issueSide = 1;
    for (const MemRef &r : op.hedge) {
        issueRef(r);
        ++issueDebt;
    }
    issueSide = 0;
    if (outSide[1] == 0) {
        // The whole replica batch hit in the L1: instant win.
        settleHedge(1);
    }
}

/** One side of the hedge race fully completed: disown the loser's
 * in-flight requests and retire the op. */
void
NmpCore::settleHedge(unsigned winner)
{
    const unsigned loser = 1 - winner;
    if (hedgeLaunched && winner == 1)
        ++relHedgeWins;
    if (outSide[loser] > 0) {
        stale += outSide[loser];
        outstanding -= outSide[loser];
        remoteOutstanding -= remoteSide[loser];
        outSide[loser] = 0;
        remoteSide[loser] = 0;
        ++issueEpoch;
    }
    exitStall();
    finishOp();
    advance();
}

void
NmpCore::advance()
{
    while (state == State::Ready) {
        if (issueDebt > 0) {
            // One issue cycle per reference of the finished batch.
            const Cycles cyc = issueDebt;
            issueDebt = 0;
            state = State::Computing;
            statComputePs +=
                static_cast<double>(clock().cyclesToTicks(cyc));
            if (tr)
                tr->complete(trk, nmCompute, now(),
                             clock().cyclesToTicks(cyc));
            const auto gen = runGeneration;
            scheduleCycles(cyc,
                           [this, gen] {
                               if (gen != runGeneration)
                                   return;
                               state = State::Ready;
                               advance();
                           },
                           EventPriority::Core);
            return;
        }

        if (!haveOp) {
            op = prog->next();
            haveOp = true;
            refIdx = 0;
        }

        switch (op.kind) {
          case Op::Kind::Compute: {
            if (reqAborted) {
                finishOp();
                break;
            }
            statInstructions += static_cast<double>(op.instructions);
            const auto cyc = std::max<Cycles>(
                1, static_cast<Cycles>(
                       static_cast<double>(op.instructions) /
                       cfg.dimm.computeIpc + 0.5));
            state = State::Computing;
            statComputePs +=
                static_cast<double>(clock().cyclesToTicks(cyc));
            if (tr)
                tr->complete(trk, nmCompute, now(),
                             clock().cyclesToTicks(cyc));
            const auto gen = runGeneration;
            scheduleCycles(cyc,
                           [this, gen] {
                               if (gen != runGeneration)
                                   return;
                               state = State::Ready;
                               finishOp();
                               advance();
                           },
                           EventPriority::Core);
            return;
          }

          case Op::Kind::Mem: {
            if (reqAborted) {
                finishOp();
                break;
            }
            while (refIdx < op.refs.size()) {
                // `stale` slots are still occupied by disowned
                // requests until their responses land.
                if (outstanding + stale >= cfg.dimm.maxOutstanding) {
                    enterStall(State::StallMshr);
                    return;
                }
                issueRef(op.refs[refIdx]);
                ++refIdx;
                ++issueDebt;
            }
            if (op.fenceAfter && outstanding > 0) {
                enterStall(State::Fence);
                return;
            }
            finishOp();
            break;
          }

          case Op::Kind::HedgedMem: {
            if (reqAborted) {
                finishOp();
                break;
            }
            // The hedge race resolves on per-side completion, so the
            // sides must start from a clean window.
            if (refIdx == 0 && outstanding > 0) {
                enterStall(State::Fence);
                return;
            }
            issueSide = 0;
            while (refIdx < op.refs.size()) {
                if (outstanding + stale >= cfg.dimm.maxOutstanding) {
                    enterStall(State::StallMshr);
                    return;
                }
                issueRef(op.refs[refIdx]);
                ++refIdx;
                ++issueDebt;
            }
            if (outstanding == 0) {
                // Every primary ref hit in the L1: nothing to race.
                finishOp();
                break;
            }
            if (!rel || rel->hedgeAfterPs == 0) {
                // No reliability engine (e.g. replaying a v3 trace
                // with the knobs off): a hedged batch is a fenced Mem.
                enterStall(State::Fence);
                return;
            }
            hedgeLaunched = false;
            enterStall(State::HedgeFence);
            const auto gen = runGeneration;
            const auto seq = reqSeq;
            queue().scheduleIn(
                rel->hedgeAfterPs,
                [this, gen, seq] {
                    if (gen != runGeneration || seq != reqSeq)
                        return;
                    if (state != State::HedgeFence || reqAborted ||
                        hedgeLaunched)
                        return;
                    launchHedge();
                },
                EventPriority::Core);
            return;
          }

          case Op::Kind::Barrier: {
            if (outstanding > 0) {
                enterStall(State::Fence);
                return;
            }
            if (!barrier)
                panic("%s: barrier op with no barrier endpoint",
                      name().c_str());
            // Software-assisted coherence: shared read-only lines
            // are invalidated at synchronization points so the next
            // phase re-fetches fresh data (Section III-E).
            if (l1)
                l1->invalidateShared();
            if (l2)
                l2->invalidateShared();
            state = State::Barrier;
            stallStart = now();
            const auto gen = runGeneration;
            barrier->arrive(tid_, dimm, [this, gen] {
                if (gen != runGeneration)
                    return;
                statBarrierPs +=
                    static_cast<double>(now() - stallStart);
                if (tr && now() > stallStart)
                    tr->complete(trk, nmBarrier, stallStart,
                                 now() - stallStart);
                state = State::Ready;
                finishOp();
                advance();
            });
            return;
          }

          case Op::Kind::Broadcast: {
            if (outstanding > 0) {
                enterStall(State::Fence);
                return;
            }
            if (!broadcaster)
                panic("%s: broadcast op with no broadcaster wired",
                      name().c_str());
            ++statBroadcasts;
            state = State::Broadcast;
            stallStart = now();
            const auto gen = runGeneration;
            broadcaster(op.bcastAddr, op.bcastBytes, [this, gen] {
                if (gen != runGeneration)
                    return;
                // Broadcast wait is remote-attributed stall time.
                statStallRemote +=
                    static_cast<double>(now() - stallStart);
                if (tr && now() > stallStart)
                    tr->complete(trk, nmBroadcast, stallStart,
                                 now() - stallStart);
                state = State::Ready;
                finishOp();
                advance();
            });
            return;
          }

          case Op::Kind::ReqStart: {
            // A ReqStart always precedes its ReqEnd, so the first one
            // builds the latency histogram before any sample.
            if (!reqHist)
                reqHist = &statGroup.histogram(
                    "reqLatencyPs",
                    static_cast<double>(cfg.serve.latBucketPs),
                    cfg.serve.latBuckets);
            if (rel) {
                if (relReqStart())
                    break;
                return;
            }
            // The previous request's ReqEnd drained the MSHRs, so the
            // latency clock starts clean. Open-loop arrivals are
            // relative to runStart; an arrival already in the past
            // starts immediately but still measures from the arrival,
            // so queueing delay lands in the latency histogram.
            const Tick arrival = op.tickArg == Op::reqNow
                                     ? now()
                                     : runStart + op.tickArg;
            reqStart = arrival;
            if (arrival > now()) {
                statReqWaitPs += static_cast<double>(arrival - now());
                state = State::Waiting;
                const auto gen = runGeneration;
                queue().schedule(arrival,
                                 [this, gen] {
                                     if (gen != runGeneration)
                                         return;
                                     state = State::Ready;
                                     finishOp();
                                     advance();
                                 },
                                 EventPriority::Core);
                return;
            }
            finishOp();
            break;
          }

          case Op::Kind::ReqEnd: {
            if (rel && reqAborted) {
                // The request was shed, failed fast or missed its
                // deadline: no latency sample, no drain (its leaked
                // MSHRs are in `stale` and free themselves as their
                // responses land).
                reqInProgress = false;
                reqAborted = false;
                reqIsTrial = false;
                breakerTarget = -1;
                finishOp();
                break;
            }
            if (outstanding > 0) {
                enterStall(State::Fence);
                return;
            }
            reqHist->sample(static_cast<double>(now() - reqStart));
            ++statRequests;
            if (rel) {
                if (breakerTarget >= 0 && reqIsTrial)
                    breaker.onOutcome(
                        static_cast<unsigned>(breakerTarget), true,
                        now(), rel->breakerReopenPs);
                reqIsTrial = false;
                breakerTarget = -1;
                reqInProgress = false;
            }
            finishOp();
            break;
          }

          case Op::Kind::Done: {
            state = State::Idle;
            prog.reset();
            haveOp = false;
            auto cb = std::move(onDone);
            onDone = nullptr;
            if (cb)
                cb();
            return;
          }
        }
    }
}

} // namespace dimmlink
