/**
 * @file
 * Data Link Layer retry control (Section III-B): every transaction
 * packet is CRC-checked at the destination; an ACK flows back on
 * success, a NACK (or silence) triggers retransmission from the
 * source after a timeout, bounded by a retry budget.
 *
 * Both ends run a selective-repeat window over the 16-bit sequence
 * space in the DLL tail word. The sender keeps an independent
 * sequence stream per destination (the receiver reconstructs order
 * per source, so every (source, destination) pair must see a gapless
 * sequence space); within each stream it admits at most `window`
 * sequence numbers between the oldest unacknowledged packet and the
 * next one to stamp, queueing further sends instead of wrapping. The
 * receiver tracks a per-source `expected` pointer plus a bounded
 * reorder buffer, delivering upward exactly once and in order no
 * matter how arrivals are corrupted, reordered, or duplicated. With
 * the window capped well below 2^15, "new" and "already delivered"
 * sequence numbers occupy disjoint halves of the circular space, so
 * duplicate filtering keeps working past any number of wraps.
 */

#ifndef DIMMLINK_PROTO_DLL_HH
#define DIMMLINK_PROTO_DLL_HH

#include <deque>
#include <map>
#include <optional>

#include "common/stats.hh"
#include "proto/packet.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace proto {

/**
 * Sender-side retry state for one DIMM's DL-Controller. Sequence
 * numbers live in the low 16 bits of the DLL field. Each entry keeps
 * the packet, its retry count and its timer; what a transmission, an
 * ACK or an exhausted budget means is the owner's decision.
 */
class RetrySender
{
  public:
    /**
     * The sender's owner, given once at construction. @p rec is the
     * owner's record for a packet, handed to send() and passed back
     * unchanged.
     */
    class Owner
    {
      public:
        /** Put @p pkt on the wire: @p attempt is 0 on the first
         * transmission and the retry count on a retransmission. */
        virtual void dllTransmit(const Packet &pkt, void *rec,
                                 unsigned attempt) = 0;
        /** The ACK arrived; the entry is retired. */
        virtual void dllAcked(void *rec) = 0;
        /** The retry budget ran out; the entry is retired. */
        virtual void dllFailed(void *rec) = 0;

      protected:
        ~Owner() = default;
    };

    /** Window used when the config does not say otherwise. */
    static constexpr unsigned defaultWindow = 64;
    /** Window ceiling: old and new halves of the 16-bit sequence
     * space must stay disjoint (see RetryReceiver). */
    static constexpr unsigned maxWindow = 8192;

    RetrySender(EventQueue &eq, Owner &owner, Tick timeout_ps,
                unsigned max_retries, stats::Group &sg,
                unsigned window = defaultWindow);

    /**
     * Send @p pkt reliably on behalf of the owner's record @p rec.
     * The owner transmits it at once (or as soon as the send window
     * opens) and again on every retry; exactly one of dllAcked and
     * dllFailed then retires it.
     */
    void send(const Packet &pkt, void *rec);

    /**
     * Feed an arriving DllAck / DllNack, damaged at @p flips (as in
     * RetryReceiver::onArrive), to the sender. The control packet's
     * SRC field (the data packet's original destination) selects the
     * sequence stream. @return false when the CRC drops it.
     */
    bool onControl(const Packet &sent,
                   const std::vector<std::uint32_t> &flips = {});

    /** Outstanding unacknowledged packets, across all destinations. */
    std::size_t inFlight() const;

    /** Sends waiting for the window to open, across destinations. */
    std::size_t queued() const;

  private:
    struct Entry
    {
        Packet pkt;
        void *rec = nullptr;
        unsigned tries = 0;
        std::uint64_t timerId = 0;
        Tick firstSentAt = 0;
    };

    /** One destination's sequence stream: the receiver reorders per
     * source, so the space must be gapless per (source, dest) pair. */
    struct Stream
    {
        std::map<std::uint16_t, Entry> pending;
        /** Sends admitted while the window was full, in order. */
        std::deque<Entry> sendQ;
        std::uint16_t nextSeq = 0;
        /** Oldest potentially-unacknowledged sequence number. */
        std::uint16_t baseSeq = 0;
    };

    /** True when [baseSeq, nextSeq) already spans the full window. */
    bool windowFull(const Stream &st) const
    {
        return static_cast<std::uint16_t>(st.nextSeq - st.baseSeq) >=
               window_;
    }

    /** Stamp the stream's next sequence onto @p e and transmit it. */
    void admit(Stream &st, Entry e);
    /** Remove a completed entry, slide the window, drain the queue. */
    void finish(Stream &st, std::map<std::uint16_t, Entry>::iterator it);
    void armTimer(std::uint8_t dst, std::uint16_t seq);
    void onTimeout(std::uint8_t dst, std::uint16_t seq);
    void retransmit(std::uint8_t dst, std::uint16_t seq);

    EventQueue &eventq;
    Owner &owner;
    Tick timeout;
    unsigned maxRetries;
    unsigned window_;
    /** Per-destination streams, indexed by the packet's DST field. */
    std::map<std::uint8_t, Stream> streams;

    stats::Scalar &statSent;
    stats::Scalar &statAcked;
    stats::Scalar &statRetries;
    stats::Scalar &statFailures;
    stats::Scalar &statBackpressured;
    /** Extra latency ACK arrival minus first transmission, sampled
     * only for packets that needed at least one retry. */
    stats::Histogram &statRecoveryPs;
};

/**
 * Receiver-side helper: CRC-checks each arrival, builds the matching
 * ACK/NACK, filters duplicate deliveries caused by retransmitted
 * packets whose original ACK was lost, and reorders out-of-sequence
 * arrivals so the upward delivery is exactly-once and in-order per
 * source.
 */
class RetryReceiver
{
  public:
    explicit RetryReceiver(stats::Group &sg,
                           unsigned window = RetrySender::defaultWindow);

    /**
     * Process an arriving transaction packet @p sent, damaged in
     * flight at the wire-image bits @p flips (in flip order). Only a
     * damaged packet is encoded, flipped and decoded through the CRC.
     * @param deliver appended with every packet that became
     *        deliverable, in sequence order (a gap fill can release
     *        several held packets at once).
     * @param ack set to the control packet to send back, or left
     *        empty when the header is too damaged to even NACK (the
     *        sender's timeout is the backstop then).
     */
    void onArrive(const Packet &sent,
                  const std::vector<std::uint32_t> &flips,
                  std::vector<Packet> &deliver,
                  std::optional<Packet> &ack,
                  std::vector<Packet> *stale = nullptr);

    /**
     * The sender retired sequence @p seq of @p src's stream without a
     * normal in-order delivery (retry exhaustion; the payload either
     * travelled out-of-band or was dropped on purpose). Advance the
     * stream past the permanent gap so later sequences are not held
     * forever: any packets buffered up to and including @p seq are
     * appended to @p deliver in order, `expected` moves past @p seq,
     * and the consecutive run that follows drains too. A stale skip
     * (@p seq already behind `expected`) is a no-op, so the
     * notification may be duplicated or arrive late.
     *
     * A sequence the skip jumps over while its packet is still in
     * flight will classify as behind-the-window on arrival; such
     * first-time "duplicates" surface through onArrive's @p stale
     * list so the caller can reconcile them.
     */
    void skipTo(std::uint8_t src, std::uint16_t seq,
                std::vector<Packet> &deliver);

    /** Out-of-order packets currently held across all sources. */
    std::size_t bufferedPackets() const;

    /** Sources with receive state (bounded by the 6-bit SRC space). */
    std::size_t trackedSources() const { return sources.size(); }

  private:
    struct SourceState
    {
        /** Next in-sequence number to deliver upward. */
        std::uint16_t expected = 0;
        /** Valid arrivals ahead of expected, by sequence number. */
        std::map<std::uint16_t, Packet> held;
    };

    std::map<std::uint8_t, SourceState> sources;
    unsigned window_;

    stats::Scalar &statValid;
    stats::Scalar &statCorrupt;
    stats::Scalar &statDuplicates;
    stats::Scalar &statOutOfOrder;
};

} // namespace proto
} // namespace dimmlink

#endif // DIMMLINK_PROTO_DLL_HH
