/**
 * @file
 * The operation stream a software thread presents to its core. The
 * methodology mirrors the paper's trace-driven simulation: workloads
 * are real algorithms over real data, but the timing model consumes
 * the Compute/Mem/Barrier/Broadcast stream they emit.
 */

#ifndef DIMMLINK_DIMM_OP_HH
#define DIMMLINK_DIMM_OP_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace dimmlink {

/**
 * Software-assisted coherence classes (Section III-E): thread-private
 * and shared read-only data are cacheable by NMP cores; shared
 * read-write data bypasses the NMP caches.
 */
enum class DataClass : std::uint8_t { Private, SharedRO, SharedRW };

/** One memory reference in an op's batch. */
struct MemRef
{
    Addr addr = 0;          ///< Global physical address.
    std::uint16_t bytes = 64;
    bool isWrite = false;
    DataClass cls = DataClass::Private;
};

/** One operation of a thread's stream. */
struct Op
{
    enum class Kind : std::uint8_t {
        Compute,   ///< Execute @ref instructions instructions.
        Mem,       ///< Issue @ref refs (overlapped up to the MSHRs).
        Barrier,   ///< Synchronize with all threads of the kernel.
        Broadcast, ///< Explicit DL broadcast of @ref bcastBytes.
        Done,      ///< Thread finished.
        ReqStart,  ///< Open a serving request (see @ref tickArg).
        ReqEnd,    ///< Drain and record the request's latency.
        HedgedMem, ///< Mem, but @ref hedge may duplicate it late.
    };

    /** ReqStart: arrival == "now" (closed-loop load generation). */
    static constexpr Tick reqNow = maxTick;

    Kind kind = Kind::Done;
    /** Compute: dynamic instruction count. */
    std::uint64_t instructions = 0;
    /** Mem: the batch of references. */
    std::vector<MemRef> refs;
    /** Mem: wait for every outstanding access before the next op. */
    bool fenceAfter = false;
    /** Broadcast: payload location and size. */
    Addr bcastAddr = 0;
    std::uint64_t bcastBytes = 0;
    /** ReqStart: the request's arrival tick, relative to the tick the
     * thread's run began (so a stream runs the same on any system),
     * or reqNow for closed-loop mode. An open-loop core idles until
     * the arrival and measures latency from it -- queueing delay
     * included -- while a closed-loop core starts the clock when it
     * picks the request up. */
    Tick tickArg = 0;
    /** ReqStart (reliability layer): shed the request if it is still
     * waiting at run start + tickArg2 -- the arrival of the
     * serve.maxInflight'th later request on this thread. 0 = never
     * shed. */
    Tick tickArg2 = 0;
    /** ReqStart (reliability layer): home DIMM of the request's data,
     * the circuit breaker's fail-fast target. -1 = no route check. */
    std::int32_t homeDimm = -1;
    /** HedgedMem: the replica batch a late hedge duplicates to. */
    std::vector<MemRef> hedge;

    static Op
    compute(std::uint64_t instructions)
    {
        Op op;
        op.kind = Kind::Compute;
        op.instructions = instructions;
        return op;
    }

    static Op
    mem(std::vector<MemRef> refs, bool fence = false)
    {
        Op op;
        op.kind = Kind::Mem;
        op.refs = std::move(refs);
        op.fenceAfter = fence;
        return op;
    }

    static Op
    read(Addr addr, std::uint16_t bytes = 64,
         DataClass cls = DataClass::Private, bool fence = false)
    {
        return mem({MemRef{addr, bytes, false, cls}}, fence);
    }

    static Op
    write(Addr addr, std::uint16_t bytes = 64,
          DataClass cls = DataClass::Private, bool fence = false)
    {
        return mem({MemRef{addr, bytes, true, cls}}, fence);
    }

    static Op
    barrier()
    {
        Op op;
        op.kind = Kind::Barrier;
        return op;
    }

    static Op
    broadcast(Addr addr, std::uint64_t bytes)
    {
        Op op;
        op.kind = Kind::Broadcast;
        op.bcastAddr = addr;
        op.bcastBytes = bytes;
        return op;
    }

    static Op
    done()
    {
        return Op{};
    }

    /** Open-loop request: idle until @p arrival_rel (ticks after the
     * thread's run start), then measure end-to-end latency from it. */
    static Op
    reqStart(Tick arrival_rel)
    {
        Op op;
        op.kind = Kind::ReqStart;
        op.tickArg = arrival_rel;
        return op;
    }

    /** Open- or closed-loop request carrying the reliability layer's
     * per-request metadata (shed horizon and breaker target). */
    static Op
    reqStartServe(Tick arrival_rel, Tick shed_after,
                  std::int32_t home_dimm)
    {
        Op op = reqStart(arrival_rel);
        op.tickArg2 = shed_after;
        op.homeDimm = home_dimm;
        return op;
    }

    /** Mem batch with a replica batch the core may hedge to after
     * serve.hedgeAfterUs. Always fenced: the hedge race resolves on
     * first completion, so nothing may overlap past it. */
    static Op
    memHedged(std::vector<MemRef> refs, std::vector<MemRef> hedge_refs)
    {
        Op op;
        op.kind = Kind::HedgedMem;
        op.refs = std::move(refs);
        op.hedge = std::move(hedge_refs);
        op.fenceAfter = true;
        return op;
    }

    /** Drain outstanding accesses, then record now - request start
     * into the core's request-latency histogram. */
    static Op
    reqEnd()
    {
        Op op;
        op.kind = Kind::ReqEnd;
        return op;
    }
};

/**
 * A thread's program: a resumable generator of operations. next() is
 * called once the previous operation has fully retired.
 */
class ThreadProgram
{
  public:
    virtual ~ThreadProgram() = default;

    /** Produce the next operation (Kind::Done exactly once, last). */
    virtual Op next() = 0;
};

} // namespace dimmlink

#endif // DIMMLINK_DIMM_OP_HH
