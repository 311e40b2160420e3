/**
 * @file
 * Table II reproduction: SerDes technique comparison, plus a check
 * that the simulator's link model reproduces each technique's
 * serialization behaviour when configured with its parameters.
 */

#include <cstdio>

#include "common/stats.hh"
#include "noc/link.hh"
#include "sim/event_queue.hh"

using namespace dimmlink;

int
main()
{
    struct Tech
    {
        const char *ref;
        const char *media;
        double gbPerPin; ///< Gb/s/pin
        double reachMm;
        double pjPerBit;
    };
    // The three techniques of Table II; GRS is the paper's choice.
    const Tech techs[] = {
        {"[10] ISSCC'15", "SMA cable", 6.0, 953, 0.58},
        {"[25] ribbon", "ribbon cable", 16.0, 500, 2.58},
        {"[69] GRS", "PCB", 25.0, 80, 1.17},
    };

    std::printf("=== Table II: SerDes techniques ===\n\n");
    std::printf("%-14s %-13s %12s %8s %12s %16s\n", "reference",
                "media", "Gb/s/pin", "reach", "pJ/b",
                "64B-flit time");
    for (const auto &t : techs) {
        // One DL link bundles 8 pins -> GB/s per direction equals
        // the per-pin Gb/s (8 pins x Gb/s / 8 bits).
        const double gbps = t.gbPerPin;
        EventQueue eq;
        stats::Registry reg;
        noc::Link link(eq, "l", gbps, 0, reg.group("l"));
        const Tick four_flits = link.serializationTime(4);
        std::printf("%-14s %-13s %12.0f %6.0fmm %12.2f %13.1f ns\n",
                    t.ref, t.media, t.gbPerPin, t.reachMm,
                    t.pjPerBit,
                    static_cast<double>(four_flits) / tickPerNs);
    }

    std::printf("\nGRS offers the highest rate and density at the "
                "shortest reach — enough to\nbridge adjacent DIMM "
                "slots but not the two sides of the socket, which "
                "is why\nDIMM-Link groups DIMMs per side and "
                "CPU-forwards between groups (Section III-C).\n");
    return 0;
}
