/** @file Heap-allocation budget of a whole-system run: every
 * component seam on the transaction path hands completions on as
 * move-only EventCallbacks or pooled records, so a DIMM-Link PageRank
 * run performs few operator-new calls per fabric transaction. A seam
 * that starts allocating per transaction again fails here.
 *
 * This file replaces the global operator new/delete to count calls,
 * so it builds into its own test executable, and only without the
 * sanitizers (which interpose the allocator themselves). */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "common/config.hh"
#include "dimm/op.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

namespace {

std::atomic<std::uint64_t> allocs{0};
/** Nonzero while the workload's own hooks run (not counted). */
std::atomic<int> paused{0};

void
count()
{
    if (paused.load(std::memory_order_relaxed) == 0)
        allocs.fetch_add(1, std::memory_order_relaxed);
}

void *
allocate(std::size_t size)
{
    count();
    return std::malloc(size ? size : 1);
}

void *
allocateAligned(std::size_t size, std::align_val_t al)
{
    count();
    const auto align = static_cast<std::size_t>(al);
    void *p = nullptr;
    if (posix_memalign(&p, align < sizeof(void *) ? sizeof(void *) : align,
                       size ? size : 1) != 0)
        return nullptr;
    return p;
}

void *
orThrow(void *p)
{
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

// Every replaceable form, so whichever pair a new-expression picks,
// allocation and release go through malloc/free together.
void *operator new(std::size_t n) { return orThrow(allocate(n)); }
void *operator new[](std::size_t n) { return orThrow(allocate(n)); }
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}
void *operator new(std::size_t n, std::align_val_t al)
{
    return orThrow(allocateAligned(n, al));
}
void *operator new[](std::size_t n, std::align_val_t al)
{
    return orThrow(allocateAligned(n, al));
}
void *operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t &) noexcept
{
    return allocateAligned(n, al);
}
void *operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t &) noexcept
{
    return allocateAligned(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t,
                     const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace dimmlink {
namespace {

/** Runs @p f with allocation counting paused. */
template <typename F>
auto
uncounted(F &&f)
{
    struct Pause
    {
        Pause() { paused.fetch_add(1, std::memory_order_relaxed); }
        ~Pause() { paused.fetch_sub(1, std::memory_order_relaxed); }
    } pause;
    return f();
}

/** A thread program whose op generation is not counted. */
class UncountedProgram : public ThreadProgram
{
  public:
    explicit UncountedProgram(std::unique_ptr<ThreadProgram> inner)
        : inner(std::move(inner))
    {}

    Op next() override { return uncounted([this] { return inner->next(); }); }

  private:
    std::unique_ptr<ThreadProgram> inner;
};

/**
 * Excludes the workload's hooks (op generation, program set-up,
 * verification) from the count, as the benchmark's
 * sim.allocs_per_event does: the budget is the simulator's, not the
 * workload generator's.
 */
class UncountedWorkload : public workloads::Workload
{
  public:
    UncountedWorkload(workloads::Workload &inner,
                      const dram::GlobalAddressMap &gmap)
        : Workload(inner.params(), gmap), inner(inner)
    {}

    std::string name() const override { return inner.name(); }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return uncounted([&]() -> std::unique_ptr<ThreadProgram> {
            return std::make_unique<UncountedProgram>(inner.program(tid));
        });
    }

    void reset() override { inner.reset(); }

    bool
    verify() const override
    {
        return uncounted([this] { return inner.verify(); });
    }

    std::uint64_t
    approxInstructions() const override
    {
        return inner.approxInstructions();
    }

    std::uint64_t
    approxMemRefs() const override
    {
        return inner.approxMemRefs();
    }

  private:
    workloads::Workload &inner;
};

/**
 * operator-new calls per fabric transaction of one @p kernel run on
 * @p cfg, asserted to verify and to run enough events to measure.
 * Transactions (the sum of every fabric.<kind>.transactions) are what
 * the workload asks of the interconnect, so the event kernel cannot
 * move the denominator: a change that fires fewer events for the same
 * work leaves the rate alone.
 */
double
allocsPerTransaction(const SystemConfig &cfg, const std::string &kernel,
                     std::uint64_t scale, unsigned rounds)
{
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = scale;
    p.rounds = rounds;
    p.serve = cfg.serve;
    auto wl = workloads::makeWorkload(kernel, p, sys.addressMap());
    UncountedWorkload counted(*wl, sys.addressMap());
    Runner runner(sys, counted);

    const auto transactions = [&sys] {
        return sys.stats().sumScalar("fabric", "transactions");
    };
    const std::uint64_t ev0 = sys.queue().executed();
    const double tx0 = transactions();
    const std::uint64_t a0 = allocs.load(std::memory_order_relaxed);
    const RunResult r = runner.run();
    const std::uint64_t n =
        allocs.load(std::memory_order_relaxed) - a0;
    const std::uint64_t events = sys.queue().executed() - ev0;
    const auto tx = static_cast<std::uint64_t>(transactions() - tx0);

    EXPECT_TRUE(r.verified);
    EXPECT_GT(events, 100000u);
    EXPECT_GT(tx, 10000u);
    const double per_tx =
        static_cast<double>(n) / static_cast<double>(tx);
    std::printf("%s: %llu operator-new calls over %llu fabric "
                "transactions (%.4f per transaction; %llu events)\n",
                kernel.c_str(), static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(tx), per_tx,
                static_cast<unsigned long long>(events));
    return per_tx;
}

/** DIMM-Link pairs with the polling proxy and hierarchical sync, as
 * in the paper. */
SystemConfig
dimmLink(const std::string &preset)
{
    auto cfg = SystemConfig::preset(preset);
    cfg.idcMethod = IdcMethod::DimmLink;
    cfg.pollingMode = PollingMode::Proxy;
    cfg.syncScheme = SyncScheme::Hierarchical;
    return cfg;
}

TEST(AllocBudget, DimmLinkPageRankStaysUnderBudget)
{
    // The paper's headline shape: 16D-8C DIMM-Link PageRank, which
    // loads DRAM, the DL-Bridge NoC and inter-group host forwarding.
    // 1.62 per transaction allows the allocations that 0.05 per event
    // did when the run fired 405,978 events for 12,472 transactions.
    EXPECT_LE(
        allocsPerTransaction(dimmLink("16D-8C"), "pagerank", 12, 2),
        1.62);
}

TEST(AllocBudget, DimmLinkBerKvStaysUnderBudget)
{
    // Open-loop kv with bit errors (the benchmark's kv-dl8-ber cell,
    // fewer requests): every intra-group transfer rides the reliable
    // DLL transport -- CRC, ACK/NACK and retransmission. A packet
    // travels as its header, and a byte image is built only for one a
    // fault damaged; each DLL packet still allocates its retry-engine
    // and completion map nodes and its captured route (about 2.68
    // calls per transaction, 0.099 per event when the run fired
    // 943,978 events). A per-packet image or callable on top of them
    // fails the budget: an encoded image on every packet and ACK read
    // 0.19 per event, and the retry engine's transmit closure
    // re-wrapped per send 0.33. 2.97 per transaction allows the
    // allocations that 0.11 per event did over those 943,978 events
    // and 34,938 transactions.
    auto cfg = dimmLink("8D-4C");
    cfg.serve.mode = "open";
    cfg.serve.offeredQps = 2e7;
    cfg.serve.requests = 20000;
    cfg.serve.getFraction = 0.5;
    cfg.faults.model = "ber";
    cfg.faults.ber = 1e-6;
    cfg.validate();
    EXPECT_LE(allocsPerTransaction(cfg, "kv", 1, 1), 2.97);
}

} // namespace
} // namespace dimmlink
