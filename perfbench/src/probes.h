#ifndef DSKS_PERFBENCH_PROBES_H_
#define DSKS_PERFBENCH_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "storage/buffer_pool.h"

namespace perfbench {

/// Median cost in ns of one FetchPage + UnpinPage on a resident page,
/// timed in batches from `threads` threads at once for `seconds`. Each
/// thread works on its own pages, which are made resident first; a timed
/// fetch that misses is reported through `*error`.
double ProbeFetchHitNs(dsks::BufferPool* pool, size_t num_pages,
                       size_t threads, uint64_t seed, double seconds,
                       std::string* error);

/// Median cost in µs of one FetchPage + UnpinPage on a non-resident page:
/// clears the pool, then fetches `samples` distinct pages in seeded
/// random order, each of which must miss. Needs a quiescent pool.
double ProbeFetchMissUs(dsks::BufferPool* pool, size_t num_pages,
                        uint64_t seed, size_t samples, std::string* error);

}  // namespace perfbench

#endif  // DSKS_PERFBENCH_PROBES_H_
