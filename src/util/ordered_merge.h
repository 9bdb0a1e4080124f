// The one k-way ordered-merge primitive behind every "disjoint ascending
// partitions back into one global order" path: the sharded store's
// candidate/enumeration merges (sharded_snapshot.cc) all reduce to it, so
// the min-pick invariant lives in exactly one place.
#ifndef GREPAIR_UTIL_ORDERED_MERGE_H_
#define GREPAIR_UTIL_ORDERED_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace grepair {

/// K-way min-pick merge over `num_tasks` streams of DISJOINT ascending
/// uint32 keys (a partition of one globally ascending key list):
/// repeatedly finds the stream whose next key is smallest and calls
/// flush(task, index) for it, visiting every (task, index) pair in global
/// key order. O(total * K) with the small K of a sharded store.
///   size(t)   -> number of keys in stream t
///   key(t, i) -> stream t's i-th key (ascending in i)
///   flush(t, i) -> consume stream t's i-th key (emit its payload)
template <typename SizeFn, typename KeyFn, typename FlushFn>
void MergeByAscendingKey(size_t num_tasks, const SizeFn& size,
                         const KeyFn& key, const FlushFn& flush) {
  std::vector<size_t> cur(num_tasks, 0);
  for (;;) {
    size_t best = num_tasks;
    uint32_t best_key = 0;
    for (size_t t = 0; t < num_tasks; ++t) {
      if (cur[t] >= size(t)) continue;
      uint32_t k = key(t, cur[t]);
      if (best == num_tasks || k < best_key) {
        best = t;
        best_key = k;
      }
    }
    if (best == num_tasks) return;
    flush(best, cur[best]);
    ++cur[best];
  }
}

}  // namespace grepair

#endif  // GREPAIR_UTIL_ORDERED_MERGE_H_
