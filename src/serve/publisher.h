// Epoch-published snapshots: the read side of the serving subsystem
// (DESIGN.md "Read path / epoch publication").
//
// The single writer (RepairService::Commit) prepares the NEXT generation in
// a private double-buffer slot — patching it forward from the graph's delta
// log (ShardedSnapshot::Advance) — and publishes it with one atomic pointer
// swap after the batch (cascade fixes included) has landed.
// Any number of concurrent readers pin the last published generation and
// run detection or backlog reads against it without ever touching the
// service commit mutex; a reader therefore observes EXACTLY the state of
// some committed batch boundary, bit-identical to a sequential replay up to
// that batch.
//
// Lifetime rules (RCU-style):
//   - a Generation is immutable from Publish() until the writer recycles
//     its slot; readers share it read-only through shared_ptr;
//   - the writer recycles the retired slot IN PLACE only when its pin
//     count has drained to zero. A still-pinned retired slot is abandoned
//     instead (the slot gets a fresh Generation object; the old one lives
//     on until the last reader's lease drops — "old generation survives
//     until last reader", tests/test_publish.cc);
//   - pin counting, not shared_ptr::use_count(), gates recycling: leases
//     release their pin with a release-store and the writer re-reads it
//     with an acquire-load, giving the happens-before edge use_count()'s
//     relaxed accounting cannot (the scheme TSan verifies).
//
// Pinning takes a tiny mutex (pointer copy + counter increment — no
// allocation, no graph work); every read of graph data after that is
// lock-free and scales with cores.
#ifndef GREPAIR_SERVE_PUBLISHER_H_
#define GREPAIR_SERVE_PUBLISHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/graph_view.h"
#include "graph/sharded_snapshot.h"
#include "graph/snapshot.h"
#include "repair/violation.h"

namespace grepair {
namespace serve {

class SnapshotPublisher;

/// One published (or in-preparation) snapshot generation: the frozen store
/// plus the violation backlog captured at the same batch boundary, so the
/// `violations` verb pages a state consistent with what `detect` sees.
struct Generation {
  /// The store, one shard or many (null until the slot is first built).
  std::unique_ptr<ShardedSnapshot> store;
  /// Backlog at the boundary, sorted deterministically (rule, first
  /// alternative's nodes, then edges — the SaveState order).
  std::vector<Violation> backlog;
  uint64_t generation = 0;  ///< publication counter (1-based; 0 = never)
  uint64_t batch = 0;       ///< committed batch seq this state mirrors
  uint64_t watermark = 0;   ///< delta-log position the store mirrors
  /// Which BeginNewEpoch() era the store belongs to; a slot from an older
  /// era (the backing graph was swapped by restore/recovery) is cleared
  /// before reuse instead of patched.
  uint64_t epoch = 0;
  /// Live leases. Writer-side recycling loads with acquire and requires 0;
  /// leases decrement with release — see the file comment.
  std::atomic<uint64_t> pins{0};

  bool has_store() const { return store != nullptr; }
  /// What readers match against (has_store() must hold).
  /// A 1-shard store hands out its only shard: the matcher's zero-copy
  /// candidate spans need a GraphSnapshot (GraphView::AsSnapshot), which
  /// the routing wrapper is not.
  const GraphView* view() const {
    if (store->NumShards() == 1) return &store->shard(0);
    return store.get();
  }
  size_t MemoryBytes() const {
    return store != nullptr ? store->MemoryBytes() : 0;
  }
};

/// RAII pin on one published generation. While any lease is live the
/// generation's store is frozen and safe to read from any thread; the
/// destructor releases the pin (and, through the shared_ptr, the
/// generation itself once the publisher has also let go). Move-only.
class ReadLease {
 public:
  ReadLease() = default;
  explicit ReadLease(std::shared_ptr<const Generation> gen)
      : gen_(std::move(gen)) {}
  ~ReadLease() { Release(); }
  ReadLease(ReadLease&& o) noexcept : gen_(std::move(o.gen_)) {
    o.gen_.reset();
  }
  ReadLease& operator=(ReadLease&& o) noexcept {
    if (this != &o) {
      Release();
      gen_ = std::move(o.gen_);
      o.gen_.reset();
    }
    return *this;
  }
  ReadLease(const ReadLease&) = delete;
  ReadLease& operator=(const ReadLease&) = delete;

  bool valid() const { return gen_ != nullptr; }
  const Generation* operator->() const { return gen_.get(); }
  const Generation& operator*() const { return *gen_; }
  /// The pinned frozen store (valid() must hold).
  const GraphView& view() const { return *gen_->view(); }

  void Release() {
    if (gen_ == nullptr) return;
    // Release order: the writer's acquire-load of pins == 0 must see every
    // read this lease performed as happened-before the recycle.
    const_cast<Generation*>(gen_.get())
        ->pins.fetch_sub(1, std::memory_order_release);
    gen_.reset();
  }

 private:
  std::shared_ptr<const Generation> gen_;
};

/// The double-buffered publication point. Single writer (the commit
/// thread) calls Writable/Publish/BeginNewEpoch; any thread calls Pin and
/// the counters.
class SnapshotPublisher {
 public:
  /// Writer: the slot the next generation is prepared in (stable between
  /// Publish calls). Recycled in place when reader-free; abandoned to its
  /// pinned readers and replaced with a fresh Generation otherwise. A slot
  /// from an older epoch comes back cleared (store dropped, watermark 0).
  Generation* Writable();

  /// Writer: atomically exposes the Writable() slot to readers as the next
  /// generation of committed batch `batch`, with `backlog` as its
  /// violation page source. The previously published generation retires
  /// into the writable slot.
  void Publish(uint64_t batch, std::vector<Violation> backlog);

  /// Reader: pins the last published generation (empty lease before the
  /// first Publish).
  ReadLease Pin() const;

  /// Writer: invalidates every slot's store (the backing graph was swapped
  /// — restore, checkpoint compaction, recovery). The published generation
  /// keeps serving the consistent PRE-swap state until the next Publish
  /// atomically replaces it; no reader ever observes a half-restored
  /// store.
  void BeginNewEpoch();

  /// Last published generation number (0 before the first Publish).
  uint64_t CurrentGeneration() const;

  /// Writer: the current BeginNewEpoch() era (slot-validity accounting).
  uint64_t current_epoch() const { return epoch_; }

  /// Writer: number of retired-but-pinned generations abandoned to their
  /// readers (each one cost a fresh rebuild instead of a recycle).
  uint64_t abandoned() const { return abandoned_; }

  /// Writer: heap footprint across both slots' stores.
  size_t MemoryBytes() const;

  /// Writer: walks both slots (for delta-log retention accounting).
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    for (const auto& s : slots_)
      if (s != nullptr) fn(*s);
  }

 private:
  uint64_t epoch_ = 0;
  uint64_t next_generation_ = 1;
  uint64_t abandoned_ = 0;
  /// Guards published_/slots_ pointer swaps and pin acquisition. Held for
  /// pointer-sized work only — never while building or reading a store.
  mutable std::mutex mu_;
  std::shared_ptr<Generation> slots_[2];
  int published_ = -1;  ///< index into slots_, -1 = nothing published
};

}  // namespace serve
}  // namespace grepair

#endif  // GREPAIR_SERVE_PUBLISHER_H_
