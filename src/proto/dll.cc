#include "proto/dll.hh"

#include <cstring>

#include "common/bitfield.hh"
#include "common/log.hh"

namespace dimmlink {
namespace proto {

namespace {

/** @p sent's wire image with the bits at @p flips toggled in order. */
std::vector<std::uint8_t>
damagedImage(const Packet &sent, const std::vector<std::uint32_t> &flips)
{
    std::vector<std::uint8_t> image = encode(sent);
    for (const std::uint32_t bit : flips)
        image[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    return image;
}

/**
 * Build a best-effort NACK from a damaged wire image. The DLL tail
 * sits behind the payload, so its offset depends on the header's LEN
 * field; when LEN disagrees with the image size the header itself is
 * suspect and no NACK is produced — the sender's retry timeout
 * recovers instead of a NACK carrying a garbage sequence number.
 */
std::optional<Packet>
makeNack(const std::vector<std::uint8_t> &image)
{
    std::uint64_t h = 0;
    std::memcpy(&h, image.data(), 8);
    Packet hdr;
    decodeHeader(h, hdr);
    const auto len = static_cast<unsigned>(
        bits(h, 64 - HeaderLayout::lenBits, HeaderLayout::lenBits));
    if (image.size() != static_cast<std::size_t>(1 + len) * flitBytes)
        return std::nullopt;

    Packet nack;
    nack.src = hdr.dst;
    nack.dst = hdr.src;
    nack.cmd = DlCommand::DllNack;
    nack.tag = hdr.tag;
    // The sequence number rides in the tail's DLL word, after the CRC.
    std::uint32_t dll = 0;
    std::memcpy(&dll, image.data() + tailOffset(len) + 4, 4);
    nack.dll = dll & 0xffff;
    return nack;
}

} // namespace

RetrySender::RetrySender(EventQueue &eq, Owner &owner_,
                         Tick timeout_ps, unsigned max_retries,
                         stats::Group &sg, unsigned window)
    : eventq(eq),
      owner(owner_),
      timeout(timeout_ps),
      maxRetries(max_retries),
      window_(window),
      statSent(sg.scalar("dllSent")),
      statAcked(sg.scalar("dllAcked")),
      statRetries(sg.scalar("dllRetries")),
      statFailures(sg.scalar("dllFailures")),
      statBackpressured(sg.scalar("dllBackpressured")),
      statRecoveryPs(sg.histogram("dllRecoveryPs",
                                  static_cast<double>(timeout_ps) / 4,
                                  64))
{
    if (window_ == 0 || window_ > maxWindow)
        panic("DLL retry window %u outside [1, %u]", window_,
              maxWindow);
}

std::size_t
RetrySender::inFlight() const
{
    std::size_t n = 0;
    for (const auto &[dst, st] : streams)
        n += st.pending.size();
    return n;
}

std::size_t
RetrySender::queued() const
{
    std::size_t n = 0;
    for (const auto &[dst, st] : streams)
        n += st.sendQ.size();
    return n;
}

void
RetrySender::send(const Packet &pkt, void *rec)
{
    Stream &st = streams[pkt.dst];
    Entry e;
    e.pkt = pkt;
    e.rec = rec;
    if (windowFull(st)) {
        // Backpressure instead of wrapping onto a live sequence
        // number: the send is queued until completions slide the
        // window forward.
        ++statBackpressured;
        st.sendQ.push_back(std::move(e));
        return;
    }
    admit(st, std::move(e));
}

void
RetrySender::admit(Stream &st, Entry e)
{
    const std::uint16_t seq = st.nextSeq++;
    const std::uint8_t dst = e.pkt.dst;
    e.pkt.dll = (e.pkt.dll & 0xffff0000u) | seq;
    e.firstSentAt = eventq.now();

    auto [it, inserted] = st.pending.emplace(seq, std::move(e));
    if (!inserted)
        panic("DLL sequence number %u wrapped while still in flight",
              seq); // unreachable: the window bound keeps seqs unique

    ++statSent;
    // The transport may complete the send inline (tests wire the
    // ACK path synchronously), erasing the entry mid-call: transmit
    // a stack copy so the packet outlives a re-entrant finish().
    const Packet snapshot = it->second.pkt;
    owner.dllTransmit(snapshot, it->second.rec, 0);
    armTimer(dst, seq);
}

void
RetrySender::finish(Stream &st,
                    std::map<std::uint16_t, Entry>::iterator it)
{
    st.pending.erase(it);
    // Slide the window past every completed sequence number, then let
    // queued sends through the space that opened up.
    while (st.baseSeq != st.nextSeq && st.pending.count(st.baseSeq) == 0)
        ++st.baseSeq;
    while (!st.sendQ.empty() && !windowFull(st)) {
        Entry e = std::move(st.sendQ.front());
        st.sendQ.pop_front();
        admit(st, std::move(e));
    }
}

void
RetrySender::armTimer(std::uint8_t dst, std::uint16_t seq)
{
    auto stream = streams.find(dst);
    if (stream == streams.end() ||
        stream->second.pending.count(seq) == 0)
        return;
    stream->second.pending[seq].timerId = eventq.scheduleIn(
        timeout, [this, dst, seq] { onTimeout(dst, seq); },
        EventPriority::Control);
}

void
RetrySender::onTimeout(std::uint8_t dst, std::uint16_t seq)
{
    auto stream = streams.find(dst);
    if (stream == streams.end() ||
        stream->second.pending.count(seq) == 0)
        return; // ACKed in the meantime.
    retransmit(dst, seq);
}

void
RetrySender::retransmit(std::uint8_t dst, std::uint16_t seq)
{
    auto stream = streams.find(dst);
    if (stream == streams.end())
        return;
    Stream &st = stream->second;
    auto it = st.pending.find(seq);
    if (it == st.pending.end())
        return;
    Entry &e = it->second;
    if (e.tries >= maxRetries) {
        ++statFailures;
        void *rec = e.rec;
        finish(st, it);
        owner.dllFailed(rec);
        return;
    }
    ++e.tries;
    ++statRetries;
    // A stack copy for the same re-entrancy reason as in admit().
    const Packet snapshot = e.pkt;
    owner.dllTransmit(snapshot, e.rec, e.tries);
    armTimer(dst, seq);
}

bool
RetrySender::onControl(const Packet &sent,
                       const std::vector<std::uint32_t> &flips)
{
    Packet ctrl = sent;
    if (!flips.empty() && !decode(damagedImage(sent, flips), ctrl))
        return false;
    // The control packet's SRC is the data packet's destination: it
    // names the sequence stream the ACK/NACK belongs to.
    auto stream = streams.find(ctrl.src);
    if (stream == streams.end())
        return true; // NACK synthesized from a damaged header.
    Stream &st = stream->second;
    const auto seq = static_cast<std::uint16_t>(ctrl.dll & 0xffff);
    auto it = st.pending.find(seq);
    if (it == st.pending.end())
        return true; // Stale control packet (late duplicate ACK).

    if (ctrl.cmd == DlCommand::DllAck) {
        eventq.deschedule(it->second.timerId);
        ++statAcked;
        if (it->second.tries > 0)
            statRecoveryPs.sample(static_cast<double>(
                eventq.now() - it->second.firstSentAt));
        void *rec = it->second.rec;
        finish(st, it);
        owner.dllAcked(rec);
    } else if (ctrl.cmd == DlCommand::DllNack) {
        eventq.deschedule(it->second.timerId);
        retransmit(ctrl.src, seq);
    } else {
        panic("non-control packet %s fed to RetrySender",
              toString(ctrl.cmd));
    }
    return true;
}

RetryReceiver::RetryReceiver(stats::Group &sg, unsigned window)
    : window_(window),
      statValid(sg.scalar("dllValid")),
      statCorrupt(sg.scalar("dllCorrupt")),
      statDuplicates(sg.scalar("dllDuplicates")),
      statOutOfOrder(sg.scalar("dllOutOfOrder"))
{
    if (window_ == 0 || window_ > RetrySender::maxWindow)
        panic("DLL receive window %u outside [1, %u]", window_,
              RetrySender::maxWindow);
}

void
RetryReceiver::onArrive(const Packet &sent,
                        const std::vector<std::uint32_t> &flips,
                        std::vector<Packet> &deliver,
                        std::optional<Packet> &ack,
                        std::vector<Packet> *stale)
{
    Packet pkt = sent;
    pkt.payloadBytes = pkt.payloadFlits() * flitBytes; // as decode() pads it
    if (!flips.empty()) {
        const std::vector<std::uint8_t> image = damagedImage(sent, flips);
        if (!decode(image, pkt)) {
            ++statCorrupt;
            ack = makeNack(image);
            return;
        }
    }
    ++statValid;

    Packet ctrl;
    ctrl.src = pkt.dst;
    ctrl.dst = pkt.src;
    ctrl.cmd = DlCommand::DllAck;
    ctrl.tag = pkt.tag;
    ctrl.dll = pkt.dll & 0xffff;

    const auto seq = static_cast<std::uint16_t>(pkt.dll & 0xffff);
    SourceState &st = sources[pkt.src];
    const auto ahead = static_cast<std::uint16_t>(seq - st.expected);
    const auto behind = static_cast<std::uint16_t>(st.expected - seq);

    if (ahead == 0) {
        // The in-sequence packet: deliver it plus everything it
        // unblocks from the reorder buffer.
        deliver.push_back(std::move(pkt));
        ++st.expected;
        for (auto held = st.held.find(st.expected);
             held != st.held.end();
             held = st.held.find(st.expected)) {
            deliver.push_back(std::move(held->second));
            st.held.erase(held);
            ++st.expected;
        }
    } else if (ahead < window_) {
        // A gap: hold the packet for in-order delivery. A second copy
        // of a held sequence is a retransmission whose ACK was lost.
        if (st.held.emplace(seq, std::move(pkt)).second)
            ++statOutOfOrder;
        else
            ++statDuplicates;
    } else if (behind <= window_) {
        // Behind the window base: normally delivered before; re-ACK
        // so the sender stops retransmitting, but do not re-deliver.
        // After a skipTo() resync this can instead be the first (and
        // only) arrival of a sequence the skip jumped over while it
        // was in flight — hand it to the stale list for the caller
        // to reconcile.
        ++statDuplicates;
        if (stale)
            stale->push_back(std::move(pkt));
    } else {
        // Outside both windows: the peer's send window is larger than
        // our receive window. NACK instead of ACK — acknowledging a
        // packet we refuse to buffer would lose it; this way the
        // sender retries until the stream catches up.
        ctrl.cmd = DlCommand::DllNack;
    }
    ack = ctrl;
}

void
RetryReceiver::skipTo(std::uint8_t src, std::uint16_t seq,
                      std::vector<Packet> &deliver)
{
    SourceState &st = sources[src];
    // Circular half-space test: with the window far below 2^15, a
    // genuine skip target is always in the "ahead" half. Anything in
    // the "behind" half is a late or duplicated notification.
    if (static_cast<std::uint16_t>(seq - st.expected) >= 0x8000)
        return;
    const auto past = static_cast<std::uint16_t>(seq + 1);
    while (st.expected != past) {
        auto held = st.held.find(st.expected);
        if (held != st.held.end()) {
            deliver.push_back(std::move(held->second));
            st.held.erase(held);
        }
        ++st.expected;
    }
    // The gap is closed; drain the consecutive run it unblocked.
    for (auto held = st.held.find(st.expected); held != st.held.end();
         held = st.held.find(st.expected)) {
        deliver.push_back(std::move(held->second));
        st.held.erase(held);
        ++st.expected;
    }
}

std::size_t
RetryReceiver::bufferedPackets() const
{
    std::size_t n = 0;
    for (const auto &[src, st] : sources)
        n += st.held.size();
    return n;
}

} // namespace proto
} // namespace dimmlink
