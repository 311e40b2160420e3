#include "fault/fault_model.hh"

#include <cmath>

#include "common/log.hh"

namespace dimmlink {
namespace fault {

std::uint64_t
streamSeed(std::uint64_t base, const std::string &link_name)
{
    // FNV-1a over the name, then mixed with the base seed.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : link_name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h ^ ((base + 1) * 0x9e3779b97f4a7c15ull);
}

FaultModel::FaultModel(Kind kind_, const FaultConfig &cfg,
                       std::uint64_t stream_seed)
    : kind(kind_),
      ber(cfg.ber),
      scale(kind_ == Kind::Degrade ? 1.0 / cfg.degradeFactor : 1.0),
      stuckAt(cfg.stuckAtPs),
      stuckFor(cfg.stuckForPs),
      stuckPeriod(cfg.stuckPeriodPs),
      rng(stream_seed)
{
}

FaultModel::Effect
FaultModel::onTransmit(Tick start, unsigned bits, noc::Message &msg)
{
    Effect e;
    switch (kind) {
      case Kind::Ber:
        e.corrupted = applyBitErrors(bits, msg) > 0;
        break;
      case Kind::Degrade:
        e.serScale = scale;
        break;
      case Kind::Stuck:
        if (start >= stuckAt && stuckFor > 0) {
            const Tick since = start - stuckAt;
            const Tick phase =
                stuckPeriod > 0 ? since % stuckPeriod : since;
            if (phase < stuckFor)
                e.stallPs = stuckFor - phase;
        }
        break;
    }
    return e;
}

unsigned
FaultModel::applyBitErrors(unsigned bits, noc::Message &msg)
{
    if (ber <= 0.0 || bits == 0)
        return 0;

    // Geometric skip sampling: draw the gap to the next error bit
    // instead of a Bernoulli trial per bit.
    const double log1mp = std::log1p(-ber);
    unsigned flipped = 0;
    std::uint64_t idx = 0;
    while (true) {
        const double u = rng.real();
        const double skip = std::floor(std::log1p(-u) / log1mp);
        if (skip >= static_cast<double>(bits))
            break;
        idx += static_cast<std::uint64_t>(skip);
        if (idx >= bits)
            break;
        if (msg.flips)
            msg.flips->push_back(static_cast<std::uint32_t>(idx));
        ++flipped;
        ++idx;
    }
    if (flipped > 0)
        msg.corrupted = true;
    return flipped;
}

std::unique_ptr<FaultModel>
makeModel(const FaultConfig &cfg, std::uint64_t seed)
{
    if (cfg.model == "none")
        return nullptr;
    FaultModel::Kind kind;
    if (cfg.model == "ber")
        kind = FaultModel::Kind::Ber;
    else if (cfg.model == "degrade")
        kind = FaultModel::Kind::Degrade;
    else if (cfg.model == "stuck")
        kind = FaultModel::Kind::Stuck;
    else
        fatal("unknown fault model '%s' (registered: ber, degrade, "
              "none, stuck)", cfg.model.c_str());
    return std::make_unique<FaultModel>(kind, cfg, seed);
}

std::unique_ptr<FaultModel>
makeFaultModel(const FaultConfig &cfg, const std::string &link_name)
{
    if (!cfg.linkFilter.empty() &&
        link_name.find(cfg.linkFilter) == std::string::npos)
        return nullptr;
    return makeModel(cfg, streamSeed(cfg.seed, link_name));
}

} // namespace fault
} // namespace dimmlink
