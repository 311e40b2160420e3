/**
 * @file
 * The built-in fault models: anonymous-namespace classes that
 * makeModel() builds by the name in faults.model.
 */

#include "fault/fault_model.hh"

#include "common/log.hh"

namespace dimmlink {
namespace fault {
namespace {

/** Independent random bit errors at a fixed BER. */
class BerModel : public FaultModel
{
  public:
    BerModel(const FaultConfig &cfg, std::uint64_t seed)
        : FaultModel(seed), ber(cfg.ber)
    {}

    Effect onTransmit(Tick, unsigned bits, noc::Message &msg) override
    {
        Effect e;
        e.corrupted = applyBitErrors(ber, bits, msg) > 0;
        return e;
    }

  private:
    const double ber;
};

/**
 * A derated link: every transmission serializes at degradeFactor of
 * the nominal rate (link retraining dropped lanes, or thermal
 * throttling). No corruption — purely a bandwidth fault.
 */
class DegradeModel : public FaultModel
{
  public:
    DegradeModel(const FaultConfig &cfg, std::uint64_t seed)
        : FaultModel(seed), scale(1.0 / cfg.degradeFactor)
    {}

    Effect onTransmit(Tick, unsigned, noc::Message &) override
    {
        Effect e;
        e.serScale = scale;
        return e;
    }

  private:
    const double scale;
};

/**
 * A stuck link: from stuckAtPs the link is down for stuckForPs,
 * repeating every stuckPeriodPs (0 = one outage). Transmissions that
 * start inside an outage stall until it ends.
 */
class StuckModel : public FaultModel
{
  public:
    StuckModel(const FaultConfig &cfg, std::uint64_t seed)
        : FaultModel(seed),
          at(cfg.stuckAtPs),
          dur(cfg.stuckForPs),
          period(cfg.stuckPeriodPs)
    {}

    Effect onTransmit(Tick start, unsigned, noc::Message &) override
    {
        Effect e;
        if (start < at || dur == 0)
            return e;
        const Tick since = start - at;
        const Tick phase = period > 0 ? since % period : since;
        if (phase < dur)
            e.stallPs = dur - phase;
        return e;
    }

  private:
    const Tick at;
    const Tick dur;
    const Tick period;
};

} // namespace

std::unique_ptr<FaultModel>
makeModel(const FaultConfig &cfg, std::uint64_t seed)
{
    if (cfg.model == "none")
        return nullptr;
    if (cfg.model == "ber")
        return std::make_unique<BerModel>(cfg, seed);
    if (cfg.model == "degrade")
        return std::make_unique<DegradeModel>(cfg, seed);
    if (cfg.model == "stuck")
        return std::make_unique<StuckModel>(cfg, seed);
    fatal("unknown fault model '%s' (registered: ber, degrade, none, "
          "stuck)", cfg.model.c_str());
}
} // namespace fault
} // namespace dimmlink
