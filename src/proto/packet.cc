#include "proto/packet.hh"

#include <cstring>

#include "common/bitfield.hh"
#include "common/crc32.hh"
#include "common/log.hh"

namespace dimmlink {
namespace proto {

const char *
toString(DlCommand c)
{
    switch (c) {
      case DlCommand::ReadReq: return "ReadReq";
      case DlCommand::ReadResp: return "ReadResp";
      case DlCommand::WriteReq: return "WriteReq";
      case DlCommand::WriteAck: return "WriteAck";
      case DlCommand::Broadcast: return "Broadcast";
      case DlCommand::SyncMsg: return "SyncMsg";
      case DlCommand::FwdReq: return "FwdReq";
      case DlCommand::DllAck: return "DllAck";
      case DlCommand::DllNack: return "DllNack";
    }
    return "?";
}

std::uint64_t
encodeHeader(const Packet &p)
{
    using L = HeaderLayout;
    std::uint64_t h = 0;
    unsigned pos = 0;
    h = insertBits(h, pos, L::srcBits, p.src);
    pos += L::srcBits;
    h = insertBits(h, pos, L::dstBits, p.dst);
    pos += L::dstBits;
    h = insertBits(h, pos, L::cmdBits,
                   static_cast<std::uint64_t>(p.cmd));
    pos += L::cmdBits;
    h = insertBits(h, pos, L::addrBits, p.addr);
    pos += L::addrBits;
    h = insertBits(h, pos, L::tagBits, p.tag);
    pos += L::tagBits;
    h = insertBits(h, pos, L::lenBits, p.payloadFlits());
    return h;
}

void
decodeHeader(std::uint64_t header, Packet &p)
{
    using L = HeaderLayout;
    unsigned pos = 0;
    p.src = static_cast<std::uint8_t>(bits(header, pos, L::srcBits));
    pos += L::srcBits;
    p.dst = static_cast<std::uint8_t>(bits(header, pos, L::dstBits));
    pos += L::dstBits;
    p.cmd = static_cast<DlCommand>(bits(header, pos, L::cmdBits));
    pos += L::cmdBits;
    p.addr = bits(header, pos, L::addrBits);
    pos += L::addrBits;
    p.tag = static_cast<std::uint8_t>(bits(header, pos, L::tagBits));
}

std::vector<std::uint8_t>
encode(const Packet &p)
{
    if (p.payloadBytes > maxPayloadBytes)
        panic("payload of %u bytes exceeds the %u-byte packet limit",
              p.payloadBytes, maxPayloadBytes);
    if (p.addr >> HeaderLayout::addrBits)
        panic("address 0x%llx does not fit the 37-bit ADDR field",
              static_cast<unsigned long long>(p.addr));

    const unsigned pay_flits = p.payloadFlits();
    std::vector<std::uint8_t> wire(
        static_cast<std::size_t>(1 + pay_flits) * flitBytes, 0);

    const std::uint64_t header = encodeHeader(p);
    const std::size_t tail = tailOffset(pay_flits);
    std::memcpy(wire.data(), &header, 8);
    std::memcpy(wire.data() + tail + 4, &p.dll, 4);

    // CRC covers the header word, the (padded) payload, and the DLL
    // word; a flip in the sequence number must not pass validation.
    std::uint32_t crc = crc32Update(0, wire.data(), tail);
    crc = crc32Update(crc, wire.data() + tail + 4, 4);
    std::memcpy(wire.data() + tail, &crc, 4);
    return wire;
}

bool
decode(const std::vector<std::uint8_t> &wire, Packet &out)
{
    if (wire.size() < flitBytes || wire.size() % flitBytes != 0)
        return false;

    std::uint64_t header;
    std::memcpy(&header, wire.data(), 8);
    decodeHeader(header, out);

    const auto len = static_cast<unsigned>(
        bits(header, 64 - HeaderLayout::lenBits,
             HeaderLayout::lenBits));
    if (wire.size() != static_cast<std::size_t>(1 + len) * flitBytes)
        return false;

    const std::size_t tail = tailOffset(len);
    std::uint32_t crc_field;
    std::memcpy(&crc_field, wire.data() + tail, 4);
    std::memcpy(&out.dll, wire.data() + tail + 4, 4);

    std::uint32_t crc = crc32Update(0, wire.data(), tail);
    crc = crc32Update(crc, wire.data() + tail + 4, 4);
    if (crc != crc_field)
        return false;

    out.payloadBytes = len * flitBytes;
    return true;
}

} // namespace proto
} // namespace dimmlink
