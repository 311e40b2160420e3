/**
 * @file
 * Deterministic link-fault injection (the ROADMAP's robustness
 * direction, in the spirit of gem5's fault-injection harnesses): a
 * FaultModel attached to a noc::Link perturbs each transmission —
 * flipping bits of the wire image, derating the serialization
 * rate, or stalling the link — from a per-link RNG stream derived
 * from the config seed and the link's name, so every run is
 * reproducible and seed-sweepable. The three models are one class
 * with a Kind; makeModel() maps faults.model ("none", "ber",
 * "degrade", "stuck") onto it.
 */

#ifndef DIMMLINK_FAULT_FAULT_MODEL_HH
#define DIMMLINK_FAULT_FAULT_MODEL_HH

#include <memory>
#include <string>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "noc/message.hh"

namespace dimmlink {
namespace fault {

class FaultModel
{
  public:
    /** The three closed link-fault models (faults.model). */
    enum class Kind
    {
        /** Independent random bit errors at a fixed BER. */
        Ber,
        /** Every transmission serializes at degradeFactor of the
         * nominal rate (link retraining dropped lanes, or thermal
         * throttling). No corruption: purely a bandwidth fault. */
        Degrade,
        /** From stuckAtPs the link is down for stuckForPs, repeating
         * every stuckPeriodPs (0 = one outage). Transmissions that
         * start inside an outage stall until it ends. */
        Stuck,
    };

    /** What one fault does to one transmission. */
    struct Effect
    {
        /** Bits were flipped en route (CRC catches them downstream). */
        bool corrupted = false;
        /** Serialization-time multiplier (degraded link: > 1). */
        double serScale = 1.0;
        /** Stall before serialization may begin (link outage). */
        Tick stallPs = 0;
    };

    /** A @p kind model with @p cfg's parameters, drawing from stream
     * @p stream_seed. */
    FaultModel(Kind kind, const FaultConfig &cfg,
               std::uint64_t stream_seed);

    /**
     * Apply the model to @p msg, about to start serializing at tick
     * @p start over @p bits wire bits. May flip bits into msg.flips
     * (and always sets msg.corrupted when it tampered).
     */
    Effect onTransmit(Tick start, unsigned bits, noc::Message &msg);

  private:
    /**
     * Flip each of @p bits independently with probability ber
     * (geometric skip sampling, so tiny BERs cost ~0 draws), appending
     * each flipped index to *msg.flips when the message has a list.
     * @return the number of bits flipped.
     */
    unsigned applyBitErrors(unsigned bits, noc::Message &msg);

    const Kind kind;
    const double ber;
    /** Degrade's serialization multiplier, 1 / degradeFactor. */
    const double scale;
    const Tick stuckAt;
    const Tick stuckFor;
    const Tick stuckPeriod;
    Rng rng;
};

/**
 * Build the model named by @p cfg.model, drawing from stream
 * @p seed: nullptr for "none"; fatal()s listing the valid names when
 * the name is unknown.
 */
std::unique_ptr<FaultModel> makeModel(const FaultConfig &cfg,
                                      std::uint64_t seed);

/**
 * The deterministic per-link RNG stream seed: a hash of the link name
 * mixed with the base seed. Distinct links get decorrelated streams;
 * the mapping is stable across runs and machines.
 */
std::uint64_t streamSeed(std::uint64_t base,
                         const std::string &link_name);

/**
 * Build the configured fault model for @p link_name, or nullptr when
 * the link is unfaulted (model "none", or the name does not match
 * faults.linkFilter).
 */
std::unique_ptr<FaultModel> makeFaultModel(const FaultConfig &cfg,
                                           const std::string &link_name);

} // namespace fault
} // namespace dimmlink

#endif // DIMMLINK_FAULT_FAULT_MODEL_HH
