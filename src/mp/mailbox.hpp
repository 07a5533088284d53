// Per-rank mailbox: an MPSC queue with (source, tag, context) matching.
// Internal to the mp runtime. A plain push never blocks; a bounded push
// (Comm::send_stream) waits while the queue already holds `bound`
// envelopes of its own (context, source, tag) stream.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "common/error.hpp"
#include "mp/message.hpp"

namespace pstap::mp {

/// Raised by blocking receives/probes on a closed mailbox. A distinct type
/// (not a timeout, not an IoError) so supervisor teardown is unambiguous:
/// ranks parked in recv during an abort unwind with this instead of
/// hanging, and no retry layer mistakes it for a transient I/O failure.
class MailboxClosed : public RuntimeError {
 public:
  using RuntimeError::RuntimeError;
};

/// One mailbox per world rank. Senders push envelopes; the owning rank
/// removes the first envelope matching (context, source-or-any, tag-or-any).
/// Matching preserves per-(source,tag) FIFO order, which is the ordering
/// guarantee message-passing codes rely on.
class Mailbox {
 public:
  /// Deposit an envelope (called by any sender thread). Never blocks.
  void push(Envelope env) {
    {
      std::lock_guard lock(mu_);
      queue_.push_back(std::move(env));
    }
    cv_.notify_all();
  }

  /// Deposit an envelope once fewer than `bound` envelopes of the same
  /// (context, source, tag) are queued; block until the receiver takes one
  /// otherwise. The count is taken from the queue itself, so whatever a
  /// closed mailbox accepted still counts after reopen(). close() wakes a
  /// blocked sender, and the envelope is deposited anyway (a closed mailbox
  /// keeps accepting pushes). Returns whether the sender had to wait.
  bool push_bounded(Envelope env, std::size_t bound) {
    bool waited = false;
    {
      std::unique_lock lock(mu_);
      const auto has_room = [&] {
        return closed_ || queued_locked(env.context, env.source, env.tag) < bound;
      };
      if (!has_room()) {
        waited = true;
        space_cv_.wait(lock, has_room);
      }
      queue_.push_back(std::move(env));
    }
    cv_.notify_all();
    return waited;
  }

  /// Block until a matching envelope is available and remove it. Throws
  /// MailboxClosed if the mailbox is (or becomes) closed and nothing
  /// matches — queued envelopes still drain after close().
  Envelope pop_matching(std::uint64_t context, int source, int tag) {
    std::unique_lock lock(mu_);
    for (;;) {
      if (auto env = try_take(context, source, tag)) return std::move(*env);
      if (closed_) throw MailboxClosed("mailbox closed while receiving");
      cv_.wait(lock);
    }
  }

  /// Non-blocking variant; std::nullopt if nothing matches now.
  std::optional<Envelope> try_pop_matching(std::uint64_t context, int source, int tag) {
    std::lock_guard lock(mu_);
    return try_take(context, source, tag);
  }

  /// Probe without removing: returns the payload size of the first matching
  /// envelope, or std::nullopt.
  std::optional<std::size_t> probe(std::uint64_t context, int source, int tag) {
    std::lock_guard lock(mu_);
    return probe_locked(context, source, tag);
  }

  /// Blocking probe: wait until a matching envelope arrives; returns its
  /// payload size without removing it. Throws MailboxClosed like
  /// pop_matching when closed with no match available.
  std::size_t probe_wait(std::uint64_t context, int source, int tag) {
    std::unique_lock lock(mu_);
    for (;;) {
      if (auto n = probe_locked(context, source, tag)) return *n;
      if (closed_) throw MailboxClosed("mailbox closed while probing");
      cv_.wait(lock);
    }
  }

  /// Close the mailbox: every receiver blocked in pop_matching/probe_wait
  /// wakes and throws MailboxClosed (after draining any envelope that
  /// already matches). Pushes remain accepted and are silently retained —
  /// a sender racing a shutdown must not crash.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    space_cv_.notify_all();
  }

  /// Reverse close(); subsequent blocking receives behave normally again.
  void reopen() {
    std::lock_guard lock(mu_);
    closed_ = false;
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  /// Number of queued envelopes (all contexts); used by tests/diagnostics.
  std::size_t depth() const {
    std::lock_guard lock(mu_);
    return queue_.size();
  }

 private:
  static bool matches(const Envelope& env, std::uint64_t context, int source, int tag) {
    return env.context == context &&
           (source == kAnySource || env.source == source) &&
           (tag == kAnyTag || env.tag == tag);
  }

  std::optional<std::size_t> probe_locked(std::uint64_t context, int source, int tag) const {
    for (const Envelope& env : queue_) {
      if (matches(env, context, source, tag)) return env.payload.size();
    }
    return std::nullopt;
  }

  std::size_t queued_locked(std::uint64_t context, int source, int tag) const {
    return static_cast<std::size_t>(
        std::count_if(queue_.begin(), queue_.end(), [&](const Envelope& env) {
          return matches(env, context, source, tag);
        }));
  }

  std::optional<Envelope> try_take(std::uint64_t context, int source, int tag) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (matches(*it, context, source, tag)) {
        Envelope env = std::move(*it);
        queue_.erase(it);
        space_cv_.notify_all();  // a bounded sender may have room now
        return env;
      }
    }
    return std::nullopt;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;        // receivers: an envelope arrived
  std::condition_variable space_cv_;  // bounded senders: an envelope left
  std::deque<Envelope> queue_;
  bool closed_ = false;
};

}  // namespace pstap::mp
