/**
 * @file
 * Request-level reliability primitives for the serving frontend
 * (docs/serving.md): resolved knob set, deterministic retry backoff,
 * and a per-core circuit breaker over rack-route health.
 *
 * Each core (dimm/core_engine.hh) owns its Backoff and
 * CircuitBreaker; NMP cores ask their DIMM's fabric, which asks
 * the rack's InterHostFabric::routeUp().
 */

#ifndef DIMMLINK_DIMM_RELIABILITY_HH
#define DIMMLINK_DIMM_RELIABILITY_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace dimmlink {

struct ServeConfig;

namespace serve_rel {

/** The serve.* reliability knobs resolved to ticks. */
struct Params
{
    Tick deadlinePs = 0;      ///< 0 = no deadlines.
    Tick hedgeAfterPs = 0;    ///< 0 = no hedging.
    Tick backoffPs = 0;       ///< Base retry delay.
    Tick breakerReopenPs = 0; ///< Open -> half-open penalty window.
    unsigned maxRetries = 0;
    unsigned maxInflight = 0; ///< 0 = never shed.

    static Params from(const ServeConfig &serve);
};

/**
 * Exponential backoff with deterministic jitter. The stream is
 * reseeded per run from (serve.seed, tid) exactly like the arrival
 * streams, so retry timing is reproducible.
 */
class Backoff
{
  public:
    /** Reseed for a thread's run. */
    void
    reseed(std::uint64_t seed, unsigned tid)
    {
        rng = Rng((seed ^ 0x5e11ab1e5e11ab1eull) * 1000003 + tid);
    }

    /** Delay before retry number @p attempt (1-based): the base
     * doubles per attempt and jitter keeps the draw within
     * [span/2, span], decorrelating colliding retriers. */
    Tick
    delay(Tick base_ps, unsigned attempt)
    {
        const unsigned shift = attempt > 16 ? 16 : attempt - 1;
        const Tick span = base_ps << shift;
        const Tick half = span / 2;
        return half + static_cast<Tick>(rng.next() % (span - half + 1));
    }

  private:
    Rng rng;
};

/**
 * Per-core circuit breaker per target host. Closed admits
 * everything; a request routed at a host whose rack routes are all
 * down trips it Open, and fast-fails follow without touching the
 * fabric until the reopen penalty elapses AND the route looks up
 * again, when one trial request is admitted half-open. Its success
 * closes the breaker; its failure re-opens with a fresh penalty.
 */
class CircuitBreaker
{
  public:
    enum class Decision : std::uint8_t { Admit, AdmitTrial, FastFail };

    Decision admit(unsigned host, bool route_up, Tick now,
                   Tick penalty_ps);

    /** Report the fate of an admitted trial request. */
    void onOutcome(unsigned host, bool success, Tick now,
                   Tick penalty_ps);

  private:
    enum class State : std::uint8_t { Closed, Open, HalfOpen };
    struct Entry
    {
        State state = State::Closed;
        Tick reopenAt = 0;
        bool trialInFlight = false;
    };

    Entry &entry(unsigned host);

    std::vector<Entry> hosts;
};

} // namespace serve_rel
} // namespace dimmlink

#endif // DIMMLINK_DIMM_RELIABILITY_HH
