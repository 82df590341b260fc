// Thread-local scratch-buffer arena.
//
// The compression operators and collectives need large temporary buffers
// (magnitude copies, candidate index lists, per-shard accumulation) on every
// call; allocating them fresh each time puts malloc/free on the gradient
// hot path.  Scratch<T> checks a vector<T> out of a thread-local free list
// and returns it at scope exit with its capacity intact, so steady-state
// calls reallocate nothing.  Being thread-local, checkout is lock-free and
// safe from inside parallel_for workers; nested checkouts simply pop further
// down the free list.
//
//   void hot_path(size_t d) {
//     Scratch<float> mags(d);          // capacity reused across calls
//     ...use mags.vec() / mags.span()...
//   }                                  // returned to this thread's pool
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hitopk {

namespace detail {

// The per-thread, per-type free list.  Buffers are handed out LIFO so the
// most recently used (cache-warm, right-sized) buffer is reused first.
template <typename T>
std::vector<std::vector<T>>& workspace_pool() {
  thread_local std::vector<std::vector<T>> pool;
  return pool;
}

}  // namespace detail

template <typename T>
class Scratch {
 public:
  // Checks out a buffer and resizes it to n elements.  Contents are
  // unspecified unless `zeroed` is true.  A zero-length checkout takes no
  // buffer from the pool: shrinking a pooled buffer to 0 would make its next
  // full-size checkout value-initialize all of it again.
  explicit Scratch(size_t n, bool zeroed = false) {
    if (n == 0) return;
    take_pooled();
    if (zeroed) {
      buffer_.assign(n, T{});
    } else {
      // Pooled buffers keep their size (not just capacity), so this only
      // value-initializes the tail beyond the previous high-water mark —
      // clearing before pooling would make resize() zero-fill all n
      // elements on every checkout, taxing every hot path with a redundant
      // memset.
      buffer_.resize(n);
    }
  }

  // Checks out a buffer emptied for the caller to grow through vec()
  // (push_back, resize); its capacity is kept, so steady-state growth
  // reallocates nothing.
  Scratch() {
    take_pooled();
    buffer_.clear();
  }

  ~Scratch() {
    // A zero-length checkout took no buffer, and one that was never given
    // storage has nothing worth pooling.
    if (buffer_.capacity() != 0) {
      detail::workspace_pool<T>().push_back(std::move(buffer_));
    }
  }

  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::vector<T>& vec() { return buffer_; }
  std::span<T> span() { return std::span<T>(buffer_); }
  std::span<const T> span() const { return std::span<const T>(buffer_); }
  T* data() { return buffer_.data(); }
  size_t size() const { return buffer_.size(); }
  T& operator[](size_t i) { return buffer_[i]; }
  const T& operator[](size_t i) const { return buffer_[i]; }

 private:
  void take_pooled() {
    auto& pool = detail::workspace_pool<T>();
    if (!pool.empty()) {
      buffer_ = std::move(pool.back());
      pool.pop_back();
    }
  }

  std::vector<T> buffer_;
};

// Bump allocator over one workspace-pooled float buffer.
//
// The autodiff tape allocates many small value/grad blocks per iteration
// whose lifetimes all end together (when the tape is reset or destroyed), so
// it uses an Arena instead of per-node Scratch checkouts: alloc() hands out
// offsets into a single backing buffer that is checked out of the calling
// thread's pool at construction and returned — capacity intact — at
// destruction.  reset() rewinds the bump pointer without releasing storage,
// which is what makes a tape reusable across iterations with zero
// steady-state allocation.
//
// Offsets stay valid across alloc() calls (the backing buffer may move, so
// re-derive spans via span() after allocating).  Being workspace-backed, an
// Arena is as thread-safe as Scratch: each thread draws from its own pool.
class Arena {
 public:
  Arena() {
    // The pooled buffer keeps its previous size so alloc() below reuses it
    // without any value re-initialization (contents are unspecified unless
    // the caller asks for zeroing).
    auto& pool = detail::workspace_pool<float>();
    if (!pool.empty()) {
      buffer_ = std::move(pool.back());
      pool.pop_back();
    }
  }

  ~Arena() {
    detail::workspace_pool<float>().push_back(std::move(buffer_));
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Reserves n floats and returns their offset.  Contents are unspecified
  // unless `zeroed` (reset() recycles dirty storage).
  size_t alloc(size_t n, bool zeroed = false) {
    const size_t offset = used_;
    used_ += n;
    if (used_ > buffer_.size()) {
      buffer_.resize(std::max(used_, buffer_.size() * 2));
    }
    if (zeroed) {
      std::fill(buffer_.begin() + static_cast<ptrdiff_t>(offset),
                buffer_.begin() + static_cast<ptrdiff_t>(used_), 0.0f);
    }
    return offset;
  }

  std::span<float> span(size_t offset, size_t n) {
    return std::span<float>(buffer_.data() + offset, n);
  }
  std::span<const float> span(size_t offset, size_t n) const {
    return std::span<const float>(buffer_.data() + offset, n);
  }

  // Rewinds the bump pointer; capacity (and the backing allocation) stay.
  void reset() { used_ = 0; }

  size_t used() const { return used_; }
  size_t capacity() const { return buffer_.size(); }

 private:
  std::vector<float> buffer_;
  size_t used_ = 0;
};

// Drops every buffer cached by the calling thread (diagnostic / test hook).
void workspace_clear();

// Number of buffers currently parked in the calling thread's float/u32
// pools (test hook: proves reuse instead of reallocation).
size_t workspace_cached_buffers();

}  // namespace hitopk
