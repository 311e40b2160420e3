#include "proto/codec.hh"

namespace dimmlink {
namespace proto {

namespace {

Packet
base(std::uint8_t src, std::uint8_t dst, DlCommand cmd, Addr addr,
     std::uint8_t tag, unsigned bytes)
{
    Packet p;
    p.src = src & 0x3f;
    p.dst = dst & 0x3f;
    p.cmd = cmd;
    p.addr = addr & ((1ull << HeaderLayout::addrBits) - 1);
    p.tag = tag & 0x3f;
    p.payloadBytes = bytes;
    return p;
}

} // namespace

Packet
Codec::makeReadReq(std::uint8_t src, std::uint8_t dst, Addr addr,
                   std::uint8_t tag)
{
    return base(src, dst, DlCommand::ReadReq, addr, tag, 0);
}

Packet
Codec::makeWriteReq(std::uint8_t src, std::uint8_t dst, Addr addr,
                    std::uint8_t tag, unsigned bytes)
{
    return base(src, dst, DlCommand::WriteReq, addr, tag, bytes);
}

Packet
Codec::makeSyncMsg(std::uint8_t src, std::uint8_t dst, std::uint8_t tag)
{
    return base(src, dst, DlCommand::SyncMsg, 0, tag, 0);
}

} // namespace proto
} // namespace dimmlink
