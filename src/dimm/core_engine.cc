#include "dimm/core_engine.hh"

#include <algorithm>

#include "common/log.hh"
#include "idc/fabric.hh"
#include "obs/tracer.hh"

namespace dimmlink {

CoreEngine::CoreEngine(EventQueue &eq, const std::string &name,
                       double freq_mhz, const Pace &pace_,
                       const SystemConfig &cfg_,
                       const idc::Fabric *fabric_, unsigned my_host,
                       stats::Registry &reg)
    : Clocked(eq, name, freq_mhz),
      cfg(cfg_),
      pace(pace_),
      rel(serve_rel::Params::from(cfg_.serve)),
      fabric(fabric_),
      myHost(my_host),
      statInstructions(reg.group(name).scalar("instructions")),
      statMemRefs(reg.group(name).scalar("memRefs")),
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
CoreEngine::resetThread()
{
    haveOp = false;
    refIdx = 0;
    issueDebt = 0;
    outstanding = 0;
    remoteOutstanding = 0;
    stale = 0;
    reqInProgress = false;
    reqAborted = false;
    reqIsTrial = false;
    breakerTarget = -1;
    hedgeLaunched = false;
    issueSide = 0;
    outSide[0] = outSide[1] = 0;
    remoteSide[0] = remoteSide[1] = 0;
}

void
CoreEngine::run(ThreadId tid, std::unique_ptr<ThreadProgram> program,
                std::function<void()> on_done)
{
    if (state != State::Idle)
        panic("%s: run() while core is busy", name().c_str());
    ++runGeneration;
    prog = std::move(program);
    tid_ = tid;
    onDone = std::move(on_done);
    resetThread();
    runStart = now();
    reqStart = now();
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
CoreEngine::cancel()
{
    ++runGeneration;
    state = State::Idle;
    prog.reset();
    onDone = nullptr;
    resetThread();
}

void
CoreEngine::finishOp()
{
    haveOp = false;
    refIdx = 0;
}

void
CoreEngine::enterStall(State s)
{
    state = s;
    stallStart = now();
    stallRemote = remoteOutstanding > 0;
}

void
CoreEngine::exitStall()
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
CoreEngine::onResponse(bool was_remote, unsigned side)
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
    if (outSide[side] == 0)
        panic("%s: side accounting underflow", name().c_str());
    --outSide[side];
    if (was_remote)
        --remoteSide[side];

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
CoreEngine::onStaleResponse()
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
CoreEngine::Response::operator()() const
{
    if (gen != core->runGeneration)
        return;
    if (epoch != core->issueEpoch) {
        core->onStaleResponse();
        return;
    }
    core->onResponse(remote, side);
}

void
CoreEngine::issueOne(const MemRef &ref)
{
    ++statMemRefs;
    ++statInstructions;
    issueRef(ref);
    ++issueDebt;
}

/** Issue the current op's refs from refIdx on. False when the MSHR
 * window filled first: the core is stalled. `stale` slots are still
 * occupied by disowned requests until their responses land. */
bool
CoreEngine::issueOpRefs()
{
    while (refIdx < op.refs.size()) {
        if (outstanding + stale >= pace.mshrs) {
            enterStall(State::StallMshr);
            return false;
        }
        issueOne(op.refs[refIdx]);
        ++refIdx;
    }
    return true;
}

/**
 * Dispatch the current ReqStart op. Re-entrant: arrival waits and
 * retry backoffs park the core and re-enter the same op, with the
 * phase flags recording what already ran. Returns true when the op
 * retired (caller continues the op loop) and false when the core
 * parked waiting for a timer.
 */
bool
CoreEngine::reqStartOp()
{
    if (reqAborted) {
        // An abort raced ahead of this re-entry; just consume it.
        finishOp();
        return true;
    }
    if (!reqInProgress) {
        // The previous request's ReqEnd drained the MSHRs, so the
        // latency clock starts clean. Open-loop arrivals are
        // relative to runStart; an arrival already in the past
        // starts immediately but still measures from the arrival,
        // so queueing delay lands in the latency histogram.
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
    if (!deadlineArmed && rel.deadlinePs > 0) {
        deadlineArmed = true;
        const Tick dl = reqStart + rel.deadlinePs;
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
    if (op.homeDimm >= 0 && fabric) {
        const unsigned target =
            cfg.hostOf(static_cast<DimmId>(op.homeDimm));
        if (target != myHost) {
            using Decision = serve_rel::CircuitBreaker::Decision;
            const bool up = fabric->routeUp(myHost, target);
            const Decision d = breaker.admit(target, up, now(),
                                             rel.breakerReopenPs);
            if (d == Decision::FastFail) {
                ++relFastFails;
                if (attempts >= rel.maxRetries) {
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
                    backoff.delay(rel.backoffPs, attempts),
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
CoreEngine::abortInFlight()
{
    reqAborted = true;
    if (breakerTarget >= 0 && reqIsTrial) {
        breaker.onOutcome(static_cast<unsigned>(breakerTarget), false,
                          now(), rel.breakerReopenPs);
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
CoreEngine::launchHedge()
{
    hedgeLaunched = true;
    ++relHedges;
    // The hedge fanout gets a dedicated issue window past the MSHR
    // cap: queueing it behind its own stuck primary would defeat it.
    issueSide = 1;
    for (const MemRef &r : op.hedge)
        issueOne(r);
    issueSide = 0;
    if (outSide[1] == 0) {
        // The whole replica batch hit in the L1: instant win.
        settleHedge(1);
    }
}

/** One side of the hedge race fully completed: disown the loser's
 * in-flight requests and retire the op. */
void
CoreEngine::settleHedge(unsigned winner)
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
CoreEngine::advance()
{
    while (state == State::Ready) {
        if (issueDebt > 0) {
            // Issue cycles for the references of the finished batch.
            const auto cyc = static_cast<Cycles>(std::max(
                1.0, static_cast<double>(issueDebt) / pace.issueIpc));
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
                       pace.computeIpc + 0.5));
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
            if (!issueOpRefs())
                return;
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
            if (!issueOpRefs())
                return;
            if (outstanding == 0) {
                // Every primary ref hit in the L1: nothing to race.
                finishOp();
                break;
            }
            if (rel.hedgeAfterPs == 0) {
                // Hedging is off: a hedged batch is a fenced Mem.
                enterStall(State::Fence);
                return;
            }
            hedgeLaunched = false;
            enterStall(State::HedgeFence);
            const auto gen = runGeneration;
            const auto seq = reqSeq;
            queue().scheduleIn(
                rel.hedgeAfterPs,
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
            state = State::Barrier;
            stallStart = now();
            const auto gen = runGeneration;
            arriveBarrier([this, gen] {
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
            ++statBroadcasts;
            state = State::Broadcast;
            stallStart = now();
            const auto gen = runGeneration;
            broadcast(op.bcastAddr, op.bcastBytes, [this, gen] {
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
            if (reqStartOp())
                break;
            return;
          }

          case Op::Kind::ReqEnd: {
            if (reqAborted) {
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
            if (breakerTarget >= 0 && reqIsTrial)
                breaker.onOutcome(static_cast<unsigned>(breakerTarget),
                                  true, now(), rel.breakerReopenPs);
            reqIsTrial = false;
            breakerTarget = -1;
            reqInProgress = false;
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
