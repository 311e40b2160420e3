#include "workloads/workload.hh"

#include "common/bitfield.hh"
#include "common/log.hh"

namespace dimmlink {
namespace workloads {

Addr
AddressAllocator::alloc(DimmId d, std::uint64_t bytes)
{
    if (d >= next.size())
        panic("allocation on nonexistent DIMM %u", d);
    const std::uint64_t base = roundUp(next[d], 64);
    const std::uint64_t end = base + roundUp(bytes, 64);
    if (end > gmap_.dimmCapacity())
        fatal("DIMM %u out of memory (%llu bytes requested)", d,
              static_cast<unsigned long long>(bytes));
    next[d] = end;
    return gmap_.globalOf(d, base);
}

/** Each kernel's constructor, defined in the kernel's own file. */
using Creator = std::unique_ptr<Workload>(const WorkloadParams &,
                                          const dram::GlobalAddressMap &);
Creator makeBfs, makeEmbed, makeGups, makeHotspot, makeKmeans, makeKv,
    makeNw, makePagerank, makeSpmv, makeSssp, makeStream, makeSyncbench,
    makeTspow;

namespace {

/** Every workload by its CLI name, sorted. */
constexpr struct
{
    const char *name;
    Creator *create;
} kernels[] = {
    {"bfs", makeBfs},           {"embed", makeEmbed},
    {"gups", makeGups},         {"hotspot", makeHotspot},
    {"kmeans", makeKmeans},     {"kv", makeKv},
    {"nw", makeNw},             {"pagerank", makePagerank},
    {"spmv", makeSpmv},         {"sssp", makeSssp},
    {"stream", makeStream},     {"syncbench", makeSyncbench},
    {"tspow", makeTspow},
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadParams &params,
             const dram::GlobalAddressMap &gmap)
{
    for (const auto &k : kernels)
        if (name == k.name)
            return k.create(params, gmap);
    std::string known;
    for (const std::string &n : knownWorkloads())
        known += (known.empty() ? "" : ", ") + n;
    fatal("unknown workload '%s' (registered: %s)", name.c_str(),
          known.c_str());
}

std::vector<std::string>
knownWorkloads()
{
    std::vector<std::string> names;
    for (const auto &k : kernels)
        names.push_back(k.name);
    return names;
}

std::vector<std::string>
p2pWorkloadNames()
{
    return {"bfs", "hotspot", "kmeans", "nw", "pagerank", "sssp"};
}

std::vector<std::string>
broadcastWorkloadNames()
{
    return {"pagerank", "sssp", "spmv"};
}

} // namespace workloads
} // namespace dimmlink
