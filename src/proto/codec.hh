/**
 * @file
 * The NW-Interface's transaction-layer codec: builders for the DL
 * function packets plus the packetization/decode latency model the
 * FPGA prototype of Section V-A measures (18 cycles of control logic
 * per packet, with the CRC pipelined per flit in an ASIC). Packet
 * sizing and segmentation live beside the format in packet.hh.
 */

#ifndef DIMMLINK_PROTO_CODEC_HH
#define DIMMLINK_PROTO_CODEC_HH

#include "common/types.hh"
#include "proto/packet.hh"

namespace dimmlink {
namespace proto {

class Codec
{
  public:
    /** Control-FSM cycles to generate or decode a packet (§V-A). */
    static constexpr unsigned controlCycles = 18;
    /** Pipelined CRC cycles per flit in the ASIC implementation. */
    static constexpr unsigned crcCyclesPerFlit = 2;

    /** Cycles to packetize a packet of @p flits in the buffer chip;
     * checking and decoding it at the destination costs the same. */
    static constexpr unsigned
    packetizeCycles(unsigned flits)
    {
        return controlCycles + crcCyclesPerFlit * flits;
    }

    /** Remote read request: header-only packet. */
    static Packet makeReadReq(std::uint8_t src, std::uint8_t dst,
                              Addr addr, std::uint8_t tag);

    /** Remote write carrying @p bytes of data. */
    static Packet makeWriteReq(std::uint8_t src, std::uint8_t dst,
                               Addr addr, std::uint8_t tag,
                               unsigned bytes);

    /** Synchronization message (single flit). */
    static Packet makeSyncMsg(std::uint8_t src, std::uint8_t dst,
                              std::uint8_t tag);
};

} // namespace proto
} // namespace dimmlink

#endif // DIMMLINK_PROTO_CODEC_HH
