/**
 * @file
 * The timing preset tables, one function per speed grade.
 * Adding a memory standard is adding a table here (and nothing in the
 * controller): docs/dram_timing.md walks through the fields and which
 * controller constraints each standard exercises.
 *
 * Sources: DDR4 grades follow the Micron DDR4 LRDIMM datasheets the
 * paper's Table V cites; DDR5/LPDDR5X/HBM2 grades follow the JEDEC
 * core timings (JESD79-5, JESD209-5, JESD235) rounded to the command
 * clock, with geometry sized so one table models the devices behind
 * one rank-level controller.
 */

#include "dram/timing.hh"

#include "common/log.hh"

namespace dimmlink {
namespace dram {
namespace {

/** Scaled from the 2400 grade (the struct defaults): same wall-clock
 * latencies at a 1600 MHz command clock. */
Timing
ddr4_3200()
{
    Timing t;
    t.name = "DDR4_3200";
    t.clkMHz = 1600.0;
    t.tRCD = 22;
    t.tRP = 22;
    t.tCL = 22;
    t.tCWL = 20;
    t.tRAS = 52;
    t.tRC = 74;
    t.tCCDl = 8;
    t.tRRDl = 8;
    t.tFAW = 34;
    t.tWR = 24;
    t.tWTRl = 12;
    t.tWTRs = 4;
    t.tRTP = 12;
    t.tREFI = 12480;
    t.tRFC = 560;
    return t;
}

/** DDR5: two independent 32-bit sub-channels per module, each with
 * its own devices (8 bank groups x 4 banks per sub-channel, 16
 * groups controller-wide), BL16 per sub-channel, write CRC extending
 * write bursts. */
Timing
ddr5_4800()
{
    Timing t;
    t.name = "DDR5_4800";
    t.clkMHz = 2400.0;
    t.tRCD = 39;
    t.tRP = 39;
    t.tCL = 40;
    t.tCWL = 38;
    t.tRAS = 77;
    t.tRC = 116;
    t.tBL = 8; // BL16, one 64-byte line per sub-channel burst.
    t.tCCDs = 8;
    t.tCCDl = 12;
    t.tRRDs = 8;
    t.tRRDl = 12;
    t.tFAW = 32;
    t.tWR = 72;
    t.tWTRs = 8;
    t.tWTRl = 24;
    t.tRTP = 18;
    t.tRTW = 16;
    t.tREFI = 9360; // tREFI1 = 3.9 us.
    t.tRFC = 708;   // tRFC1 = 295 ns (16 Gb).
    t.tCS = 2;
    t.bankGroups = 16; // 8 groups per sub-channel x 2 sub-channels.
    t.banksPerGroup = 4;
    t.rows = 65536;
    t.columns = 1024;
    t.deviceBusBytes = 8;
    t.subChannels = 2;
    t.wrCrcCycles = 2; // BL16 -> BL18 with write CRC on.
    t.energyRdWrScale = 0.75;
    t.energyActScale = 0.9;
    return t;
}

/** Same wall-clock core timings at a 3200 MHz command clock. */
Timing
ddr5_6400()
{
    Timing t = ddr5_4800();
    t.name = "DDR5_6400";
    t.clkMHz = 3200.0;
    t.tRCD = 52;
    t.tRP = 52;
    t.tCL = 52;
    t.tCWL = 50;
    t.tRAS = 102;
    t.tRC = 154;
    t.tCCDl = 16;
    t.tRRDl = 16;
    t.tFAW = 42;
    t.tWR = 96;
    t.tWTRs = 11;
    t.tWTRl = 32;
    t.tRTP = 24;
    t.tRTW = 20;
    t.tREFI = 12480;
    t.tRFC = 944;
    return t;
}

/** LPDDR5X in 16-bank / BL32 mode: no bank groups (the
 * tCCD/tRRD/tWTR L/S split collapses), no four-activate window, and
 * per-bank REFpb refresh. Two 16-bit channels model one package, 16
 * flat banks each (32 controller-wide). */
Timing
lpddr5x_8533()
{
    Timing t;
    t.name = "LPDDR5X_8533";
    t.clkMHz = 4266.0;
    t.tRCD = 77;  // 18 ns.
    t.tRP = 90;   // 21 ns.
    t.tCL = 81;   // RL ~19 ns.
    t.tCWL = 47;  // WL ~11 ns.
    t.tRAS = 179; // 42 ns.
    t.tRC = 269;
    t.tBL = 8;    // BL32 on a 16-bit lane: 64-byte line per burst.
    t.tCCDs = 8;
    t.tCCDl = 8;  // No bank groups: single CAS-to-CAS spacing.
    t.tRRDs = 21; // 5 ns.
    t.tRRDl = 21;
    t.tFAW = 0;   // Relaxed in BL32 mode: no window.
    t.tWR = 147;  // 34.5 ns.
    t.tWTRs = 43; // 10 ns.
    t.tWTRl = 43;
    t.tRTP = 32;  // 7.5 ns.
    t.tRTW = 34;
    t.tREFI = 520;  // REFpb every 122 ns (3.9 us / 32 banks).
    t.tRFC = 898;   // tRFCab = 210 ns, kept for reference.
    t.tCS = 4;
    t.bankGroups = 0;    // 16-bank mode: flat bank space.
    t.banksPerGroup = 32; // 16 banks per channel x 2 channels.
    t.rows = 65536;
    t.columns = 512;
    t.deviceBusBytes = 4;
    t.subChannels = 2;
    t.perBankRefresh = true;
    t.tRFCpb = 598; // 140 ns.
    t.energyRdWrScale = 0.35;
    t.energyActScale = 0.6;
    return t;
}

/** HBM2: four pseudo-channels per rank-level controller (eight per
 * two-rank stack), each pseudo-channel with its own 16 banks in 4
 * groups (16 groups controller-wide), per-bank refresh, short BL4
 * bursts on wide buses. */
Timing
hbm2_2000()
{
    Timing t;
    t.name = "HBM2_2000";
    t.clkMHz = 1000.0;
    t.tRCD = 14;
    t.tRP = 14;
    t.tCL = 14;
    t.tCWL = 7;
    t.tRAS = 33;
    t.tRC = 47;
    t.tBL = 2; // BL4 on a 128-bit pseudo-channel.
    t.tCCDs = 2;
    t.tCCDl = 4;
    t.tRRDs = 4;
    t.tRRDl = 6;
    t.tFAW = 16;
    t.tWR = 16;
    t.tWTRs = 3;
    t.tWTRl = 8;
    t.tRTP = 5;
    t.tRTW = 6;
    t.tREFI = 61;  // REFsb every 61 ns (3.9 us / 64 banks).
    t.tRFC = 260;
    t.tCS = 2;
    t.bankGroups = 16; // 4 groups per pseudo-channel x 4 channels.
    t.banksPerGroup = 4;
    t.rows = 32768;
    t.columns = 128;
    t.deviceBusBytes = 16;
    t.subChannels = 4;
    t.perBankRefresh = true;
    t.tRFCpb = 160;
    t.energyRdWrScale = 0.28;
    t.energyActScale = 0.5;
    return t;
}

/** Every preset, sorted by name and check()ed once. */
const std::vector<Timing> &
table()
{
    static const std::vector<Timing> all = [] {
        std::vector<Timing> t = {
            Timing{}, // DDR4_2400: the struct defaults.
            ddr4_3200(), ddr5_4800(), ddr5_6400(), hbm2_2000(),
            lpddr5x_8533()};
        for (const Timing &x : t)
            x.check();
        return t;
    }();
    return all;
}

} // namespace

Timing
Timing::preset(const std::string &name)
{
    for (const Timing &t : table())
        if (t.name == name)
            return t;
    std::string known;
    for (const std::string &n : presets())
        known += (known.empty() ? "" : ", ") + n;
    fatal("unknown DRAM timing preset '%s' (registered: %s)",
          name.c_str(), known.c_str());
}

std::vector<std::string>
Timing::presets()
{
    std::vector<std::string> names;
    for (const Timing &t : table())
        names.push_back(t.name);
    return names;
}

} // namespace dram
} // namespace dimmlink
