// Pooled, refcounted byte buffers for the message-passing hot path.
//
// The steady-state CPI loop sends the same-shaped messages every CPI, so
// the transport can run allocation-free: each rank owns a BufferPool, and
// a Buffer acquired from it returns to the pool's free list when the last
// handle drops — whichever thread that happens on. Handles are cheap
// (intrusive refcount, no control-block allocation), so a payload can be
// held simultaneously by a mailbox envelope, a receiver, and a checkpoint
// ring without any byte ever being copied.
//
// Three storage modes share one handle type:
//   * pooled    — cache-line-aligned storage recycled through a BufferPool
//     (the zero-allocation fast path);
//   * allocated — cache-line-aligned storage of its own, freed on release
//     (Buffer::allocate: the default storage of the STAP row arrays);
//   * adopted   — wraps a std::vector<std::byte> the caller already built
//     (the legacy pack()/send_bytes path; keeps move semantics, one Rep
//     allocation per message).
//
// A handle views a byte range of its storage: slice() hands out a
// sub-range that shares the refcount, so one filled array can be shipped
// to several receivers as slices, and the storage is recycled only after
// the parent handle and every slice have dropped.
//
// Ownership rule: a BufferPool must outlive every Buffer acquired from it
// (the release path walks a raw pool pointer). In the pipeline the pools
// are declared before the World/Supervisor, so mailbox-retained and
// checkpoint-retained payloads die first.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"

namespace pstap {

class BufferPool;

namespace detail {

/// Shared representation behind Buffer handles. Allocated by BufferPool
/// (recycled) or by Buffer::allocate/adopt/copy_of (deleted on release).
/// The live byte range is the handle's, not the Rep's.
struct BufferRep {
  std::atomic<std::uint32_t> refs{1};
  AlignedBuffer<std::byte> mem;  ///< aligned storage (capacity = mem.size())
  std::vector<std::byte> vec;    ///< adopted storage (when mem is empty)
  BufferPool* pool = nullptr;    ///< recycle here; nullptr => delete

  std::byte* data() noexcept { return mem.empty() ? vec.data() : mem.data(); }
  const std::byte* data() const noexcept {
    return mem.empty() ? vec.data() : mem.data();
  }
};

void release_rep(BufferRep* rep) noexcept;

}  // namespace detail

/// Refcounted handle to a byte range of shared storage. Copying (or
/// slicing) shares the bytes; the storage is freed (or returned to its
/// pool) when the last handle drops. Handles are safe to pass between
/// threads; concurrent mutation of the *bytes* is the caller's problem
/// (the pipeline's payloads are write-once; DESIGN.md §9).
class Buffer {
 public:
  Buffer() = default;
  ~Buffer() { reset(); }

  Buffer(const Buffer& other) noexcept
      : rep_(other.rep_), offset_(other.offset_), size_(other.size_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Buffer(Buffer&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)),
        offset_(std::exchange(other.offset_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Buffer& operator=(const Buffer& other) noexcept {
    Buffer tmp(other);
    swap(tmp);
    return *this;
  }
  Buffer& operator=(Buffer&& other) noexcept {
    swap(other);
    return *this;
  }

  /// Fresh `size` bytes (uninitialized) of aligned storage, not pooled.
  static Buffer allocate(std::size_t size) {
    auto* rep = new detail::BufferRep;
    rep->mem = AlignedBuffer<std::byte>(size);
    return Buffer(rep, size);
  }

  /// Wrap an existing vector without copying its bytes.
  static Buffer adopt(std::vector<std::byte> bytes) {
    auto* rep = new detail::BufferRep;
    const std::size_t size = bytes.size();
    rep->vec = std::move(bytes);
    return Buffer(rep, size);
  }

  /// Freshly allocated copy of `bytes` (not pooled).
  static Buffer copy_of(std::span<const std::byte> bytes) {
    return adopt(std::vector<std::byte>(bytes.begin(), bytes.end()));
  }

  explicit operator bool() const noexcept { return rep_ != nullptr; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  std::byte* data() noexcept {
    return rep_ == nullptr ? nullptr : rep_->data() + offset_;
  }
  const std::byte* data() const noexcept {
    return rep_ == nullptr ? nullptr : rep_->data() + offset_;
  }

  /// Handle to bytes [offset, offset + size) of this one's range. It shares
  /// the storage and its refcount: no byte is copied, and the storage stays
  /// alive (out of its pool) while any slice of it does.
  Buffer slice(std::size_t offset, std::size_t size) const {
    PSTAP_REQUIRE(offset <= size_ && size <= size_ - offset,
                  "buffer slice out of range");
    Buffer out(*this);
    out.offset_ += offset;
    out.size_ = size;
    return out;
  }

  std::span<std::byte> bytes() noexcept { return {data(), size()}; }
  std::span<const std::byte> bytes() const noexcept { return {data(), size()}; }

  /// Typed view of the payload; the byte count must divide evenly.
  template <typename T>
  std::span<T> as_span() {
    static_assert(std::is_trivially_copyable_v<T>);
    PSTAP_REQUIRE(size() % sizeof(T) == 0,
                  "buffer size is not a multiple of the element size");
    return {reinterpret_cast<T*>(data()), size() / sizeof(T)};
  }
  template <typename T>
  std::span<const T> as_span() const {
    static_assert(std::is_trivially_copyable_v<T>);
    PSTAP_REQUIRE(size() % sizeof(T) == 0,
                  "buffer size is not a multiple of the element size");
    return {reinterpret_cast<const T*>(data()), size() / sizeof(T)};
  }

  /// Extract the payload as a vector. Zero-copy when this is the only
  /// handle to an adopted vector and views it from the start; otherwise
  /// copies.
  std::vector<std::byte> to_vector() && {
    if (rep_ == nullptr) return {};
    if (rep_->mem.empty() && offset_ == 0 &&
        rep_->refs.load(std::memory_order_acquire) == 1) {
      std::vector<std::byte> out = std::move(rep_->vec);
      out.resize(size_);
      reset();
      return out;
    }
    std::vector<std::byte> out(data(), data() + size());
    reset();
    return out;
  }

  /// Drop this handle (recycles/frees the storage if it was the last one).
  void reset() noexcept {
    offset_ = size_ = 0;
    if (rep_ != nullptr) detail::release_rep(std::exchange(rep_, nullptr));
  }

 private:
  friend class BufferPool;
  Buffer(detail::BufferRep* rep, std::size_t size) noexcept
      : rep_(rep), size_(size) {}

  void swap(Buffer& other) noexcept {
    std::swap(rep_, other.rep_);
    std::swap(offset_, other.offset_);
    std::swap(size_, other.size_);
  }

  detail::BufferRep* rep_ = nullptr;
  std::size_t offset_ = 0;  ///< start of this handle's range in the storage
  std::size_t size_ = 0;    ///< bytes in this handle's range
};

/// Thread-safe free list of aligned payload buffers. acquire() reuses any
/// free buffer whose capacity fits (first fit); the steady-state pipeline
/// re-acquires the same few shapes every CPI, so after one warm-up CPI the
/// pool performs no heap allocation at all.
class BufferPool {
 public:
  explicit BufferPool(std::size_t alignment = kDefaultAlignment)
      : alignment_(alignment) {}

  /// Every Buffer acquired from this pool must already be dead.
  ~BufferPool() {
    for (detail::BufferRep* rep : free_) delete rep;
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A buffer of exactly `size` bytes (uninitialized), aligned to the
  /// pool's alignment. Reuses a free buffer when one is large enough.
  Buffer acquire(std::size_t size) {
    {
      std::lock_guard lock(mu_);
      for (std::size_t i = 0; i < free_.size(); ++i) {
        if (free_[i]->mem.size() >= size) {
          detail::BufferRep* rep = free_[i];
          free_[i] = free_.back();
          free_.pop_back();
          rep->refs.store(1, std::memory_order_relaxed);
          ++reuses_;
          return Buffer(rep, size);
        }
      }
      ++allocations_;
    }
    auto* rep = new detail::BufferRep;
    rep->mem = AlignedBuffer<std::byte>(size, alignment_);
    rep->pool = this;
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    return Buffer(rep, size);
  }

  /// Typed acquire: `count` elements of T.
  template <typename T>
  Buffer acquire_elems(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    return acquire(count * sizeof(T));
  }

  /// Pool-allocated buffers currently alive (free or held).
  std::size_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }
  /// Buffers sitting in the free list right now.
  std::size_t free_count() const {
    std::lock_guard lock(mu_);
    return free_.size();
  }
  /// Fresh heap allocations performed by acquire() (the number that must
  /// stop growing once the pipeline reaches steady state).
  std::uint64_t allocations() const {
    std::lock_guard lock(mu_);
    return allocations_;
  }
  /// acquire() calls served from the free list.
  std::uint64_t reuses() const {
    std::lock_guard lock(mu_);
    return reuses_;
  }

 private:
  friend void detail::release_rep(detail::BufferRep*) noexcept;

  void recycle(detail::BufferRep* rep) noexcept {
    rep->vec.clear();
    std::lock_guard lock(mu_);
    free_.push_back(rep);
  }

  mutable std::mutex mu_;
  std::vector<detail::BufferRep*> free_;
  std::size_t alignment_;
  std::uint64_t allocations_ = 0;
  std::uint64_t reuses_ = 0;
  std::atomic<std::size_t> outstanding_{0};
};

namespace detail {

inline void release_rep(BufferRep* rep) noexcept {
  if (rep->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (rep->pool != nullptr) {
    rep->pool->recycle(rep);
  } else {
    delete rep;
  }
}

}  // namespace detail

}  // namespace pstap
