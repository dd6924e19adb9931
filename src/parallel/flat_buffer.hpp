// Flat (CSR-style) message buffers and the allocation pool behind them.
//
// Every collective exchange in the parallel partitioner moves
// variable-length per-rank slices. The ragged representation
// (vector<vector<T>>) costs one heap allocation per destination plus a
// serialize/deserialize copy pair through byte vectors on every call —
// a tax the IPM coarsening rounds and refinement pass-pairs pay dozens of
// times per level. A FlatBuffer stores the same data as `counts` /
// `displs` (exclusive prefix sums) plus one contiguous typed payload, so
// a collective ships one pointer and the receiver copies each slice
// exactly once, directly into typed memory.
//
// Payload storage comes from a BufferPool: a small free list of raw
// blocks recycled across calls, so steady-state collective traffic
// performs no heap allocation at all. Pool lifetime rules (see
// docs/COMM.md): a FlatBuffer returns its block to the pool on
// destruction, therefore it must not outlive the pool it was created
// from — in practice, buffers are locals inside a Comm::run body and the
// per-rank pools live on the Comm.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace hgr {

/// A recyclable raw allocation. Obtained from (and returned to) a
/// BufferPool; the capacity is what was actually allocated, which may
/// exceed what the borrower asked for.
class PoolBlock {
 public:
  PoolBlock() = default;
  PoolBlock(PoolBlock&&) = default;
  PoolBlock& operator=(PoolBlock&&) = default;
  PoolBlock(const PoolBlock&) = delete;
  PoolBlock& operator=(const PoolBlock&) = delete;

  std::byte* data() const { return data_.get(); }
  std::size_t capacity() const { return capacity_; }
  bool valid() const { return data_ != nullptr; }

 private:
  friend class BufferPool;
  std::unique_ptr<std::byte[]> data_;
  std::size_t capacity_ = 0;
};

/// Free list of raw blocks. One thread at a time: each comm rank owns one
/// pool. That used to be an unchecked convention; acquire/release/clear
/// now carry an always-on busy-flag guard (same scheme as Workspace) that
/// aborts on concurrent mutation instead of corrupting the free list —
/// relevant now that thread pools run inside each rank
/// (docs/PARALLELISM.md). Keeps at most kMaxFreeBlocks cached; on
/// overflow the smallest cached block is dropped so the pool converges on
/// the large payloads worth recycling.
class BufferPool {
 public:
  static constexpr std::size_t kMaxFreeBlocks = 16;
  static constexpr std::size_t kMinBlockBytes = 64;

  BufferPool() = default;
  // Movable for container storage; the busy flag is per-object state and
  // starts clear in the moved-to pool (moving a pool mid-use is a bug the
  // guard in the next acquire would catch anyway).
  BufferPool(BufferPool&& other) noexcept
      : free_(std::move(other.free_)), stats_(other.stats_) {}
  BufferPool& operator=(BufferPool&& other) noexcept {
    free_ = std::move(other.free_);
    stats_ = other.stats_;
    return *this;
  }

  struct Stats {
    std::uint64_t acquires = 0;     // total acquire() calls
    std::uint64_t reuses = 0;       // served from the free list
    std::uint64_t allocations = 0;  // served by a fresh heap allocation
  };

  /// A block with capacity >= min_bytes: the tightest-fitting cached block
  /// if one exists, else a fresh allocation.
  PoolBlock acquire(std::size_t min_bytes) {
    const BusyGuard guard(busy_);
    ++stats_.acquires;
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].capacity_ < min_bytes) continue;
      if (best == free_.size() || free_[i].capacity_ < free_[best].capacity_)
        best = i;
    }
    if (best != free_.size()) {
      ++stats_.reuses;
      PoolBlock block = std::move(free_[best]);
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(best));
      return block;
    }
    ++stats_.allocations;
    PoolBlock block;
    block.capacity_ = std::max(min_bytes, kMinBlockBytes);
    block.data_ = std::make_unique<std::byte[]>(block.capacity_);
    return block;
  }

  void release(PoolBlock&& block) {
    if (!block.valid()) return;
    const BusyGuard guard(busy_);
    free_.push_back(std::move(block));
    if (free_.size() <= kMaxFreeBlocks) return;
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < free_.size(); ++i)
      if (free_[i].capacity_ < free_[smallest].capacity_) smallest = i;
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(smallest));
  }

  /// Drop every cached block (ScopedRegistry-style reset between
  /// measurement windows). Outstanding blocks are unaffected and may still
  /// be released back afterwards.
  void clear() {
    const BusyGuard guard(busy_);
    free_.clear();
  }

  std::size_t free_blocks() const { return free_.size(); }
  std::size_t resident_bytes() const {
    std::size_t total = 0;
    for (const PoolBlock& b : free_) total += b.capacity_;
    return total;
  }
  const Stats& stats() const { return stats_; }

 private:
  class BusyGuard {
   public:
    explicit BusyGuard(std::atomic<bool>& busy) : busy_(busy) {
      HGR_ASSERT_MSG(!busy_.exchange(true, std::memory_order_acquire),
                     "BufferPool mutated from two threads at once; pools "
                     "are per-rank or externally serialized");
    }
    ~BusyGuard() { busy_.store(false, std::memory_order_release); }
    BusyGuard(const BusyGuard&) = delete;
    BusyGuard& operator=(const BusyGuard&) = delete;

   private:
    std::atomic<bool>& busy_;
  };

  std::vector<PoolBlock> free_;
  Stats stats_;
  std::atomic<bool> busy_{false};
};

/// CSR-style per-slot message buffer: `count(s)` elements destined for (or
/// received from) slot s, stored contiguously in slot order. Build with a
/// count pass (bump count(s)), one commit_counts(), and a fill pass
/// (push(s, v)); read with slot(s) / all() spans.
template <typename T>
class FlatBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "flat buffers carry trivially copyable wire types");

 public:
  FlatBuffer() = default;
  explicit FlatBuffer(int num_slots, BufferPool* pool = nullptr) {
    reset(num_slots, pool);
  }
  ~FlatBuffer() { release_block(); }

  FlatBuffer(FlatBuffer&& other) noexcept { steal(other); }
  FlatBuffer& operator=(FlatBuffer&& other) noexcept {
    if (this != &other) {
      release_block();
      steal(other);
    }
    return *this;
  }
  FlatBuffer(const FlatBuffer&) = delete;
  FlatBuffer& operator=(const FlatBuffer&) = delete;

  /// Start a new count pass with `num_slots` empty slots. Keeps the
  /// current payload block (and pool association) for reuse unless a
  /// different pool is given.
  void reset(int num_slots, BufferPool* pool = nullptr) {
    if (pool != nullptr && pool != pool_) {
      release_block();
      pool_ = pool;
    }
    counts_.assign(static_cast<std::size_t>(num_slots), 0);
    displs_.clear();
    fill_.clear();
    total_ = 0;
    data_ = nullptr;
  }

  int slots() const { return static_cast<int>(counts_.size()); }
  bool committed() const { return !displs_.empty(); }

  /// Count-pass accumulator for slot s. Only valid before commit_counts().
  std::size_t& count(int s) {
    HGR_DASSERT(!committed());
    return counts_[static_cast<std::size_t>(s)];
  }
  std::size_t size(int s) const { return counts_[static_cast<std::size_t>(s)]; }
  std::size_t total() const { return total_; }

  /// Seal the counts: compute displacements and allocate the payload (from
  /// the pool when one is attached). Begins the fill pass.
  void commit_counts() {
    HGR_ASSERT_MSG(!committed(), "commit_counts called twice");
    displs_.resize(counts_.size() + 1);
    displs_[0] = 0;
    for (std::size_t s = 0; s < counts_.size(); ++s)
      displs_[s + 1] = displs_[s] + counts_[s];
    total_ = displs_.back();
    fill_.assign(displs_.begin(), displs_.end() - 1);
    const std::size_t bytes = total_ * sizeof(T);
    if (bytes > block_.capacity()) {
      if (pool_ != nullptr) {
        pool_->release(std::move(block_));
        block_ = pool_->acquire(bytes);
      } else {
        block_ = BufferPool{}.acquire(bytes);  // unpooled fallback
      }
    }
    data_ = reinterpret_cast<T*>(block_.data());
  }

  /// Fill-pass append into slot s (after commit_counts()).
  void push(int s, const T& value) {
    std::size_t& cursor = fill_[static_cast<std::size_t>(s)];
    HGR_DASSERT(cursor < displs_[static_cast<std::size_t>(s) + 1]);
    data_[cursor++] = value;
  }

  /// Bulk fill: claim the next n elements of slot s and return them as a
  /// writable span (for memcpy-style producers).
  std::span<T> push_n(int s, std::size_t n) {
    std::size_t& cursor = fill_[static_cast<std::size_t>(s)];
    HGR_DASSERT(cursor + n <= displs_[static_cast<std::size_t>(s) + 1]);
    T* begin = data_ + cursor;
    cursor += n;
    return {begin, n};
  }

  /// True when every slot's fill cursor reached its count (a completed
  /// count-and-fill build; asserted by the collectives in debug builds).
  bool filled() const {
    for (std::size_t s = 0; s < counts_.size(); ++s)
      if (fill_[s] != displs_[s + 1]) return false;
    return true;
  }

  std::span<T> slot(int s) {
    return {data_ + displs_[static_cast<std::size_t>(s)],
            counts_[static_cast<std::size_t>(s)]};
  }
  std::span<const T> slot(int s) const {
    return {data_ + displs_[static_cast<std::size_t>(s)],
            counts_[static_cast<std::size_t>(s)]};
  }
  std::span<T> all() { return {data_, total_}; }
  std::span<const T> all() const { return {data_, total_}; }

  const std::size_t* counts_data() const { return counts_.data(); }
  const std::size_t* displs_data() const { return displs_.data(); }

 private:
  void release_block() {
    if (pool_ != nullptr && block_.valid()) pool_->release(std::move(block_));
    block_ = PoolBlock{};
  }
  void steal(FlatBuffer& other) {
    counts_ = std::move(other.counts_);
    displs_ = std::move(other.displs_);
    fill_ = std::move(other.fill_);
    block_ = std::move(other.block_);
    pool_ = other.pool_;
    total_ = other.total_;
    data_ = other.data_;
    other.pool_ = nullptr;
    other.total_ = 0;
    other.data_ = nullptr;
  }

  std::vector<std::size_t> counts_;
  std::vector<std::size_t> displs_;  // size slots()+1 once committed
  std::vector<std::size_t> fill_;    // per-slot fill cursors
  PoolBlock block_;
  BufferPool* pool_ = nullptr;  // where the block goes on destruction
  std::size_t total_ = 0;
  T* data_ = nullptr;
};

}  // namespace hgr
