/**
 * @file
 * Heap-allocation counter of the benchmark driver. alloc_count.cc
 * replaces every global operator new / operator delete variant with a
 * malloc-backed version that bumps one counter, so the driver can
 * attribute allocations to the spans it times without any change to
 * the simulator library.
 */

#ifndef DIMMLINK_PERFBENCH_ALLOC_COUNT_HH
#define DIMMLINK_PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace perfbench {

/** operator-new calls (every variant) since the process started. */
std::uint64_t allocCount();

} // namespace perfbench

#endif // DIMMLINK_PERFBENCH_ALLOC_COUNT_HH
