/**
 * @file
 * The timeline observability tracer: a low-overhead binary event
 * recorder for the simulated machine. Components register a track
 * (one Chrome-trace pid/tid pair) and intern their event names once
 * at construction; the hot path is then a single predicted
 * null-pointer branch followed by writing one fixed-size record into
 * a per-track ring buffer. Nothing here ever schedules events or
 * touches the stats registry, so tracing cannot perturb a simulation.
 */

#ifndef DIMMLINK_OBS_TRACER_HH
#define DIMMLINK_OBS_TRACER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace dimmlink {
namespace obs {

/**
 * Trace categories, a bitmask. Each instrumented layer guards its
 * records behind one bit so `obs.categories` can cut recording cost
 * to exactly the layers under investigation.
 */
enum Category : unsigned {
    CatDram = 1u << 0,    ///< DRAM controller command timeline.
    CatNoc = 1u << 1,     ///< DL-Bridge routers and links.
    CatDll = 1u << 2,     ///< Packet lifetimes and DLL retries.
    CatCore = 1u << 3,    ///< NMP core compute/stall/barrier spans.
    CatHost = 1u << 4,    ///< Host forwarding path.
    CatCounter = 1u << 5, ///< Periodic sampler counter series.
    CatAll = (1u << 6) - 1,
};

/**
 * Parse a comma-separated category list ("dram,noc", "all") into a
 * mask; fatal()s on unknown names listing the valid ones.
 */
unsigned categoryMaskFromString(const std::string &list);

/** Canonical name of one category bit ("dram", "noc", ...). */
const char *categoryName(unsigned one_bit);

/** What one trace record means. */
enum class RecordKind : std::uint8_t {
    Complete,   ///< A span with a known duration (arg = ticks).
    Instant,    ///< A point event (arg free for the instrument site).
    AsyncBegin, ///< Start of an overlapping span (arg = async id).
    AsyncEnd,   ///< End of an overlapping span (arg = async id).
    Counter,    ///< A sampled value (arg = bit-cast double).
};

/** One fixed-size binary trace record (24 bytes). */
struct Record
{
    Tick tick = 0;
    std::uint64_t arg = 0;
    std::uint32_t track = 0;
    std::uint16_t name = 0;
    RecordKind kind = RecordKind::Instant;
};

/**
 * The global tracer, owned by the System and exposed to components
 * through EventQueue::tracer(). Null when tracing is off; components
 * additionally receive null when their category is disabled, so every
 * record site costs one predicted branch in the common case.
 */
class Tracer
{
  public:
    /**
     * @param categories     enabled-category mask (CatAll for all).
     * @param ring_capacity  records kept per track; older records are
     *                       overwritten and counted as dropped.
     */
    Tracer(unsigned categories, std::size_t ring_capacity);

    bool enabled(unsigned cat) const { return (cats & cat) != 0; }
    unsigned categories() const { return cats; }
    std::size_t ringCapacity() const { return cap; }

    /**
     * Register a track under an explicit (process, thread) pair; the
     * exporter maps processes to pids and threads to tids.
     */
    std::uint32_t track(const std::string &process,
                        const std::string &thread, unsigned cat);

    /**
     * Register a track from a dotted component name, split at the
     * last dot: "dimm0.mc.rank1" becomes process "dimm0.mc", thread
     * "rank1". Names without a dot become their own process.
     */
    std::uint32_t track(const std::string &component_name, unsigned cat);

    /** Intern an event-name string; stable for the tracer's lifetime. */
    std::uint16_t intern(const std::string &name);

    /** Globally unique id for AsyncBegin/AsyncEnd pairing. */
    std::uint64_t nextAsyncId() { return ++asyncSeq; }

    // -- record emission (hot path) -------------------------------------
    void
    complete(std::uint32_t trk, std::uint16_t nm, Tick start, Tick dur)
    {
        push(Record{start, dur, trk, nm, RecordKind::Complete});
    }

    void
    instant(std::uint32_t trk, std::uint16_t nm, Tick t,
            std::uint64_t arg = 0)
    {
        push(Record{t, arg, trk, nm, RecordKind::Instant});
    }

    void
    asyncBegin(std::uint32_t trk, std::uint16_t nm, Tick t,
               std::uint64_t id)
    {
        push(Record{t, id, trk, nm, RecordKind::AsyncBegin});
    }

    void
    asyncEnd(std::uint32_t trk, std::uint16_t nm, Tick t,
             std::uint64_t id)
    {
        push(Record{t, id, trk, nm, RecordKind::AsyncEnd});
    }

    void counter(std::uint32_t trk, std::uint16_t nm, Tick t, double v);

    // -- export-side accessors ------------------------------------------
    struct TrackInfo
    {
        std::string process;
        std::string thread;
        unsigned category = 0;
    };

    const std::vector<TrackInfo> &tracks() const { return infos; }
    const std::vector<std::string> &names() const { return nameTable; }

    /** Records ever pushed (including overwritten ones). */
    std::uint64_t recorded() const { return recordedCount; }
    /** Records lost to ring overwrite, totalled over all tracks. */
    std::uint64_t dropped() const;
    std::uint64_t droppedOn(std::uint32_t trk) const
    {
        return rings[trk].overwritten;
    }

    /** Visit a track's surviving records, oldest first. */
    void forEachRecord(std::uint32_t trk,
                       const std::function<void(const Record &)> &fn) const;

  private:
    struct Ring
    {
        std::vector<Record> buf;
        std::size_t head = 0; ///< Oldest record once the ring is full.
        std::uint64_t overwritten = 0;
    };

    void
    push(const Record &r)
    {
        ++recordedCount;
        Ring &ring = rings[r.track];
        if (ring.buf.size() < cap) {
            ring.buf.push_back(r);
            return;
        }
        ring.buf[ring.head] = r;
        ring.head = (ring.head + 1) % cap;
        ++ring.overwritten;
    }

    unsigned cats;
    std::size_t cap;
    std::vector<TrackInfo> infos;
    std::vector<Ring> rings;
    std::vector<std::string> nameTable;
    std::uint64_t recordedCount = 0;
    std::uint64_t asyncSeq = 0;
};

} // namespace obs
} // namespace dimmlink

#endif // DIMMLINK_OBS_TRACER_HH
