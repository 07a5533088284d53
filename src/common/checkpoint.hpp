// Lightweight in-memory checkpointing for pipeline recovery.
//
// A CheckpointRing logs, per rank, the task-boundary messages the rank
// consumed for CPIs that are still in flight. No task keeps a state
// snapshot: beamform's weight set is itself a logged message (weights from
// CPI k-1, logged under consuming CPI k). When the supervisor respawns a
// dead rank, the replacement re-executes its in-flight CPIs: every receive
// first consults the ring and replays the logged payload if present,
// falling back to the (persistent) mailbox otherwise. Completing a CPI
// evicts its messages, so steady-state memory is one CPI's worth of
// boundary traffic per rank — that is the checkpoint cost, measured by
// bytes_held()/peak_bytes().
//
// Messages are keyed by (consumption CPI, stream, source). The consumption
// CPI is the receiver's CPI, which for temporally-aligned edges (weights
// computed at CPI k-1, consumed by beamform at k) differs from the sender's
// tag CPI — keying by consumption keeps eviction safe: nothing a future
// replay could need is dropped before the receiver completes that CPI.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"

namespace pstap::ckpt {

class CheckpointRing {
 public:
  /// `depth` bounds how many distinct in-flight CPIs the ring may hold
  /// messages for; exceeding it means a complete() call went missing and
  /// fails loudly rather than growing without bound.
  explicit CheckpointRing(std::size_t depth = 4) : depth_(depth) {
    PSTAP_REQUIRE(depth_ >= 1, "checkpoint: ring depth must be >= 1");
  }

  CheckpointRing(const CheckpointRing&) = delete;
  CheckpointRing& operator=(const CheckpointRing&) = delete;

  /// Log a message consumed at `cpi` on `stream` from comm rank `source`.
  /// The ring shares the refcounted payload — no byte is copied; the
  /// storage stays alive until complete() evicts the entry. Recording the
  /// same key twice keeps the first copy (a replayed receive re-records
  /// idempotently).
  void record_message(int cpi, int stream, int source, Buffer payload) {
    std::lock_guard lock(mu_);
    if (find_locked(cpi, stream, source) != nullptr) return;
    check_depth_locked(cpi);
    bytes_held_ += payload.size();
    peak_bytes_ = std::max(peak_bytes_, bytes_held_);
    ++recorded_;
    messages_.push_back(Entry{cpi, stream, source, std::move(payload)});
  }

  /// Replay lookup: a shared handle to the logged payload for (cpi,
  /// stream, source); `false` when absent. Counts a replay on hit — fresh
  /// executions never hit (their entries were either never recorded or
  /// already evicted by complete()).
  bool replay_message(int cpi, int stream, int source, Buffer& out) {
    std::lock_guard lock(mu_);
    const Entry* entry = find_locked(cpi, stream, source);
    if (entry == nullptr) return false;
    out = entry->payload;
    ++replayed_;
    return true;
  }

  /// Mark `cpi` complete: advances the watermark and evicts every message
  /// consumed at or before it. A respawn never re-executes a completed
  /// CPI, so those payloads are dead.
  void complete(int cpi) {
    std::lock_guard lock(mu_);
    watermark_ = std::max(watermark_, cpi);
    for (auto it = messages_.begin(); it != messages_.end();) {
      if (it->cpi <= watermark_) {
        bytes_held_ -= it->payload.size();
        it = messages_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Last completed CPI (-1 before any complete()). A respawned rank
  /// resumes at watermark() + 1.
  int watermark() const {
    std::lock_guard lock(mu_);
    return watermark_;
  }

  std::size_t bytes_held() const {
    std::lock_guard lock(mu_);
    return bytes_held_;
  }

  /// High-water mark of bytes_held() — the checkpoint memory cost.
  std::size_t peak_bytes() const {
    std::lock_guard lock(mu_);
    return peak_bytes_;
  }

  std::uint64_t messages_recorded() const {
    std::lock_guard lock(mu_);
    return recorded_;
  }

  std::uint64_t messages_replayed() const {
    std::lock_guard lock(mu_);
    return replayed_;
  }

 private:
  struct Entry {
    int cpi;
    int stream;
    int source;
    Buffer payload;  ///< shared view of the consumed message (no copy)
  };

  const Entry* find_locked(int cpi, int stream, int source) const {
    for (const Entry& e : messages_) {
      if (e.cpi == cpi && e.stream == stream && e.source == source) return &e;
    }
    return nullptr;
  }

  void check_depth_locked(int cpi) const {
    // Count distinct CPIs that would be held; must stay within depth_.
    std::vector<int> cpis{cpi};
    for (const Entry& e : messages_) {
      bool seen = false;
      for (int c : cpis) seen = seen || c == e.cpi;
      if (!seen) cpis.push_back(e.cpi);
    }
    PSTAP_CHECK(cpis.size() <= depth_,
                "checkpoint: ring depth exceeded (missing complete()?)");
  }

  std::size_t depth_;
  mutable std::mutex mu_;
  std::deque<Entry> messages_;
  int watermark_ = -1;
  std::size_t bytes_held_ = 0;
  std::size_t peak_bytes_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t replayed_ = 0;
};

}  // namespace pstap::ckpt
