#include "dram/timing.hh"

#include "common/bitfield.hh"
#include "common/log.hh"

namespace dimmlink {
namespace dram {

void
Timing::check() const
{
    if (clkMHz <= 0)
        fatal("DRAM preset '%s': clock must be positive", name.c_str());
    if (tBL == 0)
        fatal("DRAM preset '%s': burst length must be positive",
              name.c_str());
    if (banksPerGroup == 0 || rows == 0 || columns == 0 ||
        deviceBusBytes == 0)
        fatal("DRAM preset '%s': geometry fields must be positive",
              name.c_str());
    if (bankGroups > 1 && !isPow2(bankGroups))
        fatal("DRAM preset '%s': bankGroups (%u) must be 0 or a power "
              "of two", name.c_str(), bankGroups);
    if (!isPow2(banksPerGroup))
        fatal("DRAM preset '%s': banksPerGroup (%u) must be a power "
              "of two", name.c_str(), banksPerGroup);
    if (subChannels == 0)
        fatal("DRAM preset '%s': subChannels must be positive",
              name.c_str());
    if (perBankRefresh && tRFCpb == 0)
        fatal("DRAM preset '%s': per-bank refresh needs tRFCpb",
              name.c_str());
}

} // namespace dram
} // namespace dimmlink
