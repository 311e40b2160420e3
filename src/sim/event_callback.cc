#include "sim/event_callback.hh"

#include <cstdlib>
#include <vector>

namespace dimmlink {
namespace detail {

namespace {

/**
 * Power-of-two size classes from 64 B to 4 KiB. Captures beyond the
 * largest class (none exist in the simulator today) fall through to
 * operator new.
 */
constexpr std::size_t minClassBytes = 64;
constexpr std::size_t maxClassBytes = 4096;
constexpr unsigned numClasses = 7; // 64,128,256,512,1024,2048,4096

/** Blocks carved per slab refill; slabs are never returned to the OS. */
constexpr std::size_t blocksPerSlab = 64;

struct FreeNode
{
    FreeNode *next;
};

struct Pool
{
    FreeNode *freeList[numClasses] = {};
    // Slab backing storage. Deliberately leaked (no destructor) for
    // exit-time destruction order: a static object built before the
    // first arena allocation is destroyed after this pool, and any
    // callback it still holds must not point into freed slabs. The
    // leak is bounded by the allocation high-water mark.
    std::vector<void *> slabs;
};

Pool &
pool()
{
    // Single-threaded like the event kernel, so the free lists need
    // no locks.
    static Pool p;
    return p;
}

unsigned
classOf(std::size_t bytes)
{
    std::size_t sz = minClassBytes;
    unsigned cls = 0;
    while (sz < bytes) {
        sz <<= 1;
        ++cls;
    }
    return cls;
}

std::size_t
classBytes(unsigned cls)
{
    return minClassBytes << cls;
}

} // namespace

void *
CallbackArena::allocate(std::size_t bytes)
{
    if (bytes > maxClassBytes)
        return ::operator new(bytes);
    const unsigned cls = classOf(bytes);
    Pool &p = pool();
    if (!p.freeList[cls]) {
        // Refill: carve one slab into blocksPerSlab free blocks.
        const std::size_t bsz = classBytes(cls);
        auto *slab = static_cast<unsigned char *>(
            ::operator new(bsz * blocksPerSlab));
        p.slabs.push_back(slab);
        for (std::size_t i = 0; i < blocksPerSlab; ++i) {
            auto *node = reinterpret_cast<FreeNode *>(slab + i * bsz);
            node->next = p.freeList[cls];
            p.freeList[cls] = node;
        }
    }
    FreeNode *node = p.freeList[cls];
    p.freeList[cls] = node->next;
    return node;
}

void
CallbackArena::deallocate(void *ptr, std::size_t bytes) noexcept
{
    if (bytes > maxClassBytes) {
        ::operator delete(ptr);
        return;
    }
    const unsigned cls = classOf(bytes);
    Pool &p = pool();
    auto *node = static_cast<FreeNode *>(ptr);
    node->next = p.freeList[cls];
    p.freeList[cls] = node;
}

} // namespace detail
} // namespace dimmlink
