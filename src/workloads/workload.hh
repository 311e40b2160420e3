/**
 * @file
 * The workload framework: the benchmark kernels of Table IV expressed
 * as real algorithms over real data that emit per-thread op streams.
 * Each workload owns its data, places it across the DIMMs through a
 * bump allocator over the global address map, and can verify its
 * computed result against a sequential reference.
 */

#ifndef DIMMLINK_WORKLOADS_WORKLOAD_HH
#define DIMMLINK_WORKLOADS_WORKLOAD_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "dimm/op.hh"
#include "dram/address_map.hh"

namespace dimmlink {
namespace workloads {

/** Problem sizing and mode knobs. */
struct WorkloadParams
{
    unsigned numThreads = 16;
    unsigned numDimms = 4;
    /** Generic size knob; each workload documents its meaning. */
    std::uint64_t scale = 1;
    std::uint64_t seed = 1;
    /** PR/SSSP/SpMV: distribute shared vectors with explicit DL
     * broadcasts instead of remote reads (Fig. 12 mode). */
    bool broadcastMode = false;
    /** Sync microkernel: instructions between barriers (Fig. 14). */
    std::uint64_t syncIntervalInstr = 2000;
    /** Sync microkernel / TS.Pow: number of barrier rounds. */
    unsigned rounds = 32;
    /** Serving workloads (kv, embed): arrival process, keyspace and
     * popularity knobs; copied from SystemConfig::serve by drivers. */
    ServeConfig serve;
};

/** Home DIMM of thread slice @p tid under block distribution: the
 * threads split into numDimms contiguous runs, and each thread's data
 * and the thread itself live on its run's DIMM. The one definition of
 * the natural placement that kernels and the runner share. */
inline DimmId
blockHome(ThreadId tid, unsigned num_threads, unsigned num_dimms)
{
    return static_cast<DimmId>(static_cast<std::uint64_t>(tid) *
                               num_dimms / num_threads);
}

/** Append line-granular refs covering [@p base, @p base + @p bytes):
 * one ref per 64-byte line, the last one trimmed to the range end. */
inline void
appendLineRefs(std::vector<MemRef> &refs, Addr base, std::uint32_t bytes,
               bool is_write, DataClass cls)
{
    for (std::uint32_t off = 0; off < bytes; off += 64) {
        const auto chunk = static_cast<std::uint16_t>(
            std::min<std::uint32_t>(64, bytes - off));
        refs.push_back(MemRef{base + off, chunk, is_write, cls});
    }
}

/** Per-DIMM bump allocator over the global physical address space. */
class AddressAllocator
{
  public:
    explicit AddressAllocator(const dram::GlobalAddressMap &gmap)
        : gmap_(gmap), next(gmap.numDimms(), 0)
    {}

    /** Allocate @p bytes on DIMM @p d; 64-byte aligned. */
    Addr alloc(DimmId d, std::uint64_t bytes);

    /** Bytes allocated so far on DIMM @p d. */
    std::uint64_t used(DimmId d) const { return next[d]; }

  private:
    const dram::GlobalAddressMap &gmap_;
    std::vector<std::uint64_t> next;
};

/**
 * A benchmark kernel. The runner calls programs() once per (re)start;
 * thread tid's program is the kernel slice bound to tid. Data
 * placement is fixed at construction; the mapper moves threads, not
 * data (migration-by-restart, Section IV-B).
 */
class Workload
{
  public:
    Workload(WorkloadParams params, const dram::GlobalAddressMap &gmap)
        : p(std::move(params)), gmap(gmap), alloc(gmap)
    {}
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Build thread @p tid's program for a fresh kernel run. */
    virtual std::unique_ptr<ThreadProgram> program(ThreadId tid) = 0;

    /** Clear result state before a re-run (migration restart). */
    virtual void reset() {}

    /** Check the computed result against the reference. */
    virtual bool verify() const { return true; }

    /** Approximate dynamic instructions (speedup denominators). */
    virtual std::uint64_t approxInstructions() const { return 0; }

    /** Approximate memory references one run issues; sizes the
     * profiling window of the distance-aware mapper (~1%). */
    virtual std::uint64_t
    approxMemRefs() const
    {
        return approxInstructions() / 3;
    }

    const WorkloadParams &params() const { return p; }

    /** Bytes this workload's data occupies on DIMM @p d. */
    std::uint64_t placedBytes(DimmId d) const { return alloc.used(d); }

  protected:
    /** Home DIMM of thread-slice @p tid's data: block distribution. */
    DimmId
    sliceHome(ThreadId tid) const
    {
        return blockHome(tid, p.numThreads, p.numDimms);
    }

    WorkloadParams p;
    const dram::GlobalAddressMap &gmap;
    AddressAllocator alloc;
};

/** Build the workload named @p name ("bfs", "pagerank", ...);
 * fatal()s with the known names when it is unknown. */
std::unique_ptr<Workload> makeWorkload(
    const std::string &name, const WorkloadParams &params,
    const dram::GlobalAddressMap &gmap);

/** Every workload name, sorted. */
std::vector<std::string> knownWorkloads();

/** The six P2P workloads of Fig. 10, in paper order. */
std::vector<std::string> p2pWorkloadNames();

/** The three broadcast workloads of Fig. 12. */
std::vector<std::string> broadcastWorkloadNames();

} // namespace workloads
} // namespace dimmlink

#endif // DIMMLINK_WORKLOADS_WORKLOAD_HH
