/**
 * @file
 * Device timing as a standard-agnostic parameter table. A memory
 * standard (DDR4, DDR5, LPDDR5X, HBM2) is *data*, not code: every
 * speed grade is one fully-populated Timing in the preset table
 * (timing_presets.cc), and the controller
 * consults the table for the constraints a standard actually has —
 * tFAW=0 disables the four-activate window, bankGroups=0 collapses
 * the tCCD_L/S split, perBankRefresh swaps all-bank REFab for
 * round-robin REFsb, and subChannels>1 splits the data bus into
 * independently-timed lanes (DDR5 sub-channels / HBM pseudo-channels).
 *
 * The defaults below are the DDR4-2400 LRDIMM grammar of the paper's
 * Table V (Micron datasheet values).
 */

#ifndef DIMMLINK_DRAM_TIMING_HH
#define DIMMLINK_DRAM_TIMING_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace dimmlink {
namespace dram {

/**
 * All values in command-clock cycles unless suffixed Ps. DDR4-2400
 * runs the command clock at 1200 MHz (tCK = 833 ps), moving data on
 * both edges (2400 MT/s).
 */
struct Timing
{
    std::string name = "DDR4_2400";
    double clkMHz = 1200.0;

    unsigned tRCD = 17;   ///< ACT to RD/WR.
    unsigned tRP = 17;    ///< PRE to ACT.
    unsigned tCL = 17;    ///< RD to first data.
    unsigned tCWL = 16;   ///< WR to first data.
    unsigned tRAS = 39;   ///< ACT to PRE.
    unsigned tRC = 56;    ///< ACT to ACT, same bank.
    unsigned tBL = 4;     ///< Line burst occupies this many clocks.
    unsigned tCCDs = 4;   ///< CAS to CAS, different bank group.
    unsigned tCCDl = 6;   ///< CAS to CAS, same bank group.
    unsigned tRRDs = 4;   ///< ACT to ACT, different bank group.
    unsigned tRRDl = 6;   ///< ACT to ACT, same bank group.
    unsigned tFAW = 26;   ///< Four-activate window; 0 = no window.
    unsigned tWR = 18;    ///< Write recovery (last data to PRE).
    unsigned tWTRs = 3;   ///< Write-to-read, different bank group.
    unsigned tWTRl = 9;   ///< Write-to-read, same bank group.
    unsigned tRTP = 9;    ///< Read to PRE.
    unsigned tRTW = 8;    ///< Read-to-write turnaround on the bus.
    unsigned tREFI = 9360; ///< Refresh command interval (7.8 us).
    unsigned tRFC = 420;  ///< All-bank refresh cycle (350 ns, 16 Gb).
    unsigned tCS = 2;     ///< Rank-to-rank switch penalty.

    /** Geometry. bankGroups == 0 means the standard has no bank-group
     * split (LPDDR5X 8-bank mode): the L-variant constraints are
     * ignored and banksPerGroup counts the flat banks of a rank. */
    unsigned bankGroups = 4;
    unsigned banksPerGroup = 4;
    unsigned rows = 65536;
    unsigned columns = 1024;
    unsigned deviceBusBytes = 8; ///< Bytes per column (per lane).

    /** Independently-timed data-bus lanes: DDR5 sub-channels or HBM
     * pseudo-channels. Banks are statically striped across lanes. */
    unsigned subChannels = 1;
    /** Extra burst clocks a write carries for on-die write CRC. */
    unsigned wrCrcCycles = 0;
    /** Same-bank refresh: REFsb cycles one bank per tREFI instead of
     * blocking the whole rank for tRFC. */
    bool perBankRefresh = false;
    unsigned tRFCpb = 0; ///< Per-bank refresh cycle time (REFsb).

    /** Per-standard energy coefficients, relative to the paper's DDR4
     * constants in cfg.energy (1.0 leaves them untouched). */
    double energyRdWrScale = 1.0;
    double energyActScale = 1.0;

    /** One command-clock period in ticks. */
    Tick clkPeriod() const { return periodFromMHz(clkMHz); }

    /** Ticks for n command clocks. */
    Tick cyc(unsigned n) const { return n * clkPeriod(); }

    /** Bank-group count with the groupless case folded to one. */
    unsigned effGroups() const { return bankGroups ? bankGroups : 1; }

    bool hasBankGroups() const { return bankGroups > 0; }

    unsigned banksPerRank() const
    {
        return effGroups() * banksPerGroup;
    }

    /** Die on an inconsistent table (bad geometry, zero clocks). */
    void check() const;

    /** Fetch a preset by name; fatal()s with the preset names when
     * unknown. Defined with the tables in timing_presets.cc. */
    static Timing preset(const std::string &name);

    /** The preset names, sorted, for validation and messages. */
    static std::vector<std::string> presets();
};

} // namespace dram
} // namespace dimmlink

#endif // DIMMLINK_DRAM_TIMING_HH
