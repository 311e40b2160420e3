/**
 * @file
 * Global operator new/delete replacements that count allocations.
 *
 * Every replaceable variant is defined here -- plain, array, nothrow,
 * sized and over-aligned -- all on top of malloc/free, so whichever
 * pair the compiler picks for a given new-expression, allocation and
 * release go through the same allocator. Replacing only the plain
 * pair would leave the sized and aligned forms on the default
 * implementation and invite -Wmismatched-new-delete.
 */

#include "alloc_count.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> allocs{0};

void *
allocate(std::size_t size)
{
    allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
allocateAligned(std::size_t size, std::align_val_t al)
{
    allocs.fetch_add(1, std::memory_order_relaxed);
    const auto align = static_cast<std::size_t>(al);
    void *p = nullptr;
    if (posix_memalign(&p, align < sizeof(void *) ? sizeof(void *) : align,
                       size ? size : 1) != 0)
        return nullptr;
    return p;
}

void *
allocateOrThrow(std::size_t size)
{
    if (void *p = allocate(size))
        return p;
    throw std::bad_alloc();
}

void *
allocateAlignedOrThrow(std::size_t size, std::align_val_t al)
{
    if (void *p = allocateAligned(size, al))
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace perfbench {

std::uint64_t
allocCount()
{
    return allocs.load(std::memory_order_relaxed);
}

} // namespace perfbench

void *operator new(std::size_t n) { return allocateOrThrow(n); }
void *operator new[](std::size_t n) { return allocateOrThrow(n); }
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
    return allocateAlignedOrThrow(n, al);
}
void *operator new[](std::size_t n, std::align_val_t al)
{
    return allocateAlignedOrThrow(n, al);
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
