/**
 * @file
 * The DIMM-Link packet of Fig. 3: a 64-bit header (SRC, DST, CMD,
 * ADDR, TAG, LEN), an optional payload, and a tail carrying a 32-bit
 * CRC plus the 32-bit DLL field (ack/retry sequence + credits). The
 * wire order is header, payload (flit-padded), then the tail — the
 * CRC is computed over everything else, including the DLL word, so a
 * flip confined to the sequence number cannot masquerade as a valid
 * packet. The packet is sliced into 128-bit flits; header and tail
 * together occupy exactly one flit, so a zero-payload packet is a
 * single flit and a maximal packet is 1 + 256/16 = 17 flits (within
 * the paper's 32-flit bound; LEN is the 5-bit payload flit count).
 */

#ifndef DIMMLINK_PROTO_PACKET_HH
#define DIMMLINK_PROTO_PACKET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitfield.hh"
#include "common/types.hh"

namespace dimmlink {
namespace proto {

/** 4-bit CMD field values (the Function Layer's DL functions). */
enum class DlCommand : std::uint8_t {
    ReadReq = 0,   ///< Remote memory read request (no payload).
    ReadResp = 1,  ///< Read-return data.
    WriteReq = 2,  ///< Remote memory write (payload = data).
    WriteAck = 3,  ///< Write completion acknowledgement.
    Broadcast = 4, ///< Explicit-API broadcast data.
    SyncMsg = 5,   ///< Synchronization message (barriers/locks).
    FwdReq = 6,    ///< CPU-forwarding registration (polling proxy).
    DllAck = 7,    ///< Data-link-layer ACK for retry control.
    DllNack = 8,   ///< CRC failure: request retransmission.
};

const char *toString(DlCommand c);

/** Field widths of the 64-bit header. */
struct HeaderLayout
{
    static constexpr unsigned srcBits = 6;
    static constexpr unsigned dstBits = 6;
    static constexpr unsigned cmdBits = 4;
    static constexpr unsigned addrBits = 37;
    static constexpr unsigned tagBits = 6;
    static constexpr unsigned lenBits = 5;
    static_assert(srcBits + dstBits + cmdBits + addrBits + tagBits +
                  lenBits == 64);
};

/** Hand out the TAG @p next holds and advance it through the 6-bit
 * TAG space, wrapping to 0 (the TAGs a DL-Controller recycles). */
inline std::uint8_t
allocTag(std::uint8_t &next)
{
    const std::uint8_t tag = next;
    next = static_cast<std::uint8_t>((next + 1) &
                                     ((1u << HeaderLayout::tagBits) - 1));
    return tag;
}

/** Geometry constants. */
constexpr unsigned flitBytes = 16;     ///< 128-bit flits.
constexpr unsigned maxPayloadBytes = 256;
constexpr unsigned maxPayloadFlits = maxPayloadBytes / flitBytes;
static_assert(maxPayloadBytes % flitBytes == 0,
              "a full packet's payload fills whole flits");

/** Packets @p bytes of data segments into: maximal packets, the last
 * carrying the remainder, and at least one (a header-only packet). */
constexpr std::uint64_t
packetsFor(std::uint64_t bytes)
{
    return bytes == 0 ? 1 : divCeil(bytes, maxPayloadBytes);
}

/** Flits of one packet carrying @p payload_bytes: the header/tail
 * flit plus the flit-padded payload. */
constexpr unsigned
flitsFor(std::uint64_t payload_bytes)
{
    return 1 + static_cast<unsigned>(divCeil(payload_bytes, flitBytes));
}

/** Wire bytes of @p bytes of data once segmented: one header/tail
 * flit per packet plus the flit-padded payload (every packet but the
 * last is full, and a full payload pads to nothing). */
constexpr std::uint64_t
wireBytesFor(std::uint64_t bytes)
{
    return packetsFor(bytes) * flitBytes + roundUp(bytes, flitBytes);
}

/**
 * Walk the packets @p bytes of data segments into, in order: calls
 * @p chunk with each packet's payload size (maxPayloadBytes, then the
 * remainder; a single 0 for no data).
 */
template <typename F>
void
forEachSegment(std::uint64_t bytes, F &&chunk)
{
    do {
        const auto c = static_cast<unsigned>(
            std::min<std::uint64_t>(bytes, maxPayloadBytes));
        bytes -= c;
        chunk(c);
    } while (bytes > 0);
}

/**
 * Byte offset of the tail (CRC word, then DLL word) in the wire image
 * of a packet with @p payload_flits payload flits. The tail sits
 * after the payload, so the offset depends on LEN.
 */
constexpr std::size_t
tailOffset(unsigned payload_flits)
{
    return 8 + static_cast<std::size_t>(payload_flits) * flitBytes;
}

/** A DL packet: its header and DLL fields and its payload's length
 * (no code reads payload data; encode() writes zeros). */
struct Packet
{
    std::uint8_t src = 0;
    std::uint8_t dst = 0;
    DlCommand cmd = DlCommand::ReadReq;
    /** 37-bit DIMM-local address (the DIMM id bits live in SRC/DST). */
    std::uint64_t addr = 0;
    std::uint8_t tag = 0;
    /** Payload length in bytes (at most maxPayloadBytes). */
    unsigned payloadBytes = 0;
    /** DLL field: low 16 bits = sequence number, high 16 = credits. */
    std::uint32_t dll = 0;

    /** Payload flit count (the LEN field). */
    unsigned payloadFlits() const { return numFlits() - 1; }

    /** Total flits on the wire (header/tail flit + payload flits). */
    unsigned numFlits() const { return flitsFor(payloadBytes); }

    /** Total bytes on the wire. */
    unsigned wireBytes() const { return numFlits() * flitBytes; }

    bool operator==(const Packet &o) const = default;
};

/** Pack the six header fields into the 64-bit header word. */
std::uint64_t encodeHeader(const Packet &p);

/** Unpack a 64-bit header word into @p p (payload untouched). */
void decodeHeader(std::uint64_t header, Packet &p);

/**
 * Serialize to the wire format: header word, payload (zeros) padded
 * to whole flits, then the tail (CRC32 over header + payload + DLL
 * word, followed by the DLL field).
 */
std::vector<std::uint8_t> encode(const Packet &p);

/**
 * Parse a wire buffer. @return true and fill @p out when the CRC
 * validates; false on corruption (the caller sends DllNack). The
 * recovered payloadBytes is LEN x 16 (the flit-padded length);
 * semantic lengths are tracked by the transaction layer.
 */
bool decode(const std::vector<std::uint8_t> &wire, Packet &out);

} // namespace proto
} // namespace dimmlink

#endif // DIMMLINK_PROTO_PACKET_HH
