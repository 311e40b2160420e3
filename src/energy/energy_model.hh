/**
 * @file
 * Counter-based energy accounting (Section V-C / Fig. 13). Constants
 * follow the paper: GRS links at 1.17 pJ/b, DDR array access at
 * 14 pJ/b, off-chip memory-bus IO at 22 pJ/b, 2.1 nJ per ACT, 1.8 W
 * per 4-core NMP processor, and gem5/McPAT-profiled per-operation
 * host polling/forwarding energies (constants here).
 */

#ifndef DIMMLINK_ENERGY_ENERGY_MODEL_HH
#define DIMMLINK_ENERGY_ENERGY_MODEL_HH

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dimmlink {

/** Energy totals in picojoules. */
struct EnergyReport
{
    double dramPj = 0;     ///< Array reads/writes + activates.
    double linkPj = 0;     ///< DIMM-Link SerDes traffic.
    double hostIoPj = 0;   ///< Memory-bus IO (forwarding + polling).
    double forwardPj = 0;  ///< Host CPU forwarding operations.
    double busPj = 0;      ///< AIM dedicated-bus traffic.
    double nmpCorePj = 0;  ///< NMP processor energy over the kernel.

    double
    total() const
    {
        return dramPj + linkPj + hostIoPj + forwardPj + busPj +
               nmpCorePj;
    }

    /** IDC-attributable portion (link + host IO + fwd + bus). */
    double
    idc() const
    {
        return linkPj + hostIoPj + forwardPj + busPj;
    }
};

class EnergyModel
{
  public:
    explicit EnergyModel(const SystemConfig &cfg) : cfg(cfg) {}

    /**
     * Compute the energy consumed between two stat snapshots of the
     * same registry (call snapshot() before the kernel, report()
     * after).
     */
    stats::Registry &snapshotFrom(stats::Registry &reg);

    /** Build the report from current counters minus the snapshot,
     * for a kernel that ran @p kernel_ticks with @p active_dimms
     * DIMMs powered. */
    EnergyReport report(const stats::Registry &reg, Tick kernel_ticks,
                        unsigned active_dimms) const;

  private:
    double delta(const stats::Registry &reg,
                 const std::string &group_prefix,
                 const std::string &stat) const;

    const SystemConfig &cfg;
    /** Snapshot values indexed by "prefix|stat". */
    std::map<std::string, double> base;
};

} // namespace dimmlink

#endif // DIMMLINK_ENERGY_ENERGY_MODEL_HH
