// Asynchronous I/O engine: one service thread per stripe directory.
//
// Mirrors the structure of a parallel file system's server side: each
// stripe directory has an independent queue and service thread, so a read
// that spans many stripe directories proceeds in parallel while a small
// stripe factor funnels all chunks through few queues — the mechanism
// behind the paper's stripe-factor bottleneck.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/retry.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/stats.hpp"
#include "pfs/config.hpp"

namespace pstap::pfs {

/// A server is "slow" when its seconds-per-byte service estimate exceeds
/// kSlowFactor x the median across servers. While any server is slow,
/// replicated reads are placed per stripe unit on whichever copy should
/// finish first.
inline constexpr double kSlowFactor = 2.0;

/// Raised when a serviced chunk fails CRC32C verification. Derives IoError
/// (and is not permanent), so retry layers re-read the chunk — corruption
/// is caught at the source and never reaches a consumer's buffer as data.
class ChecksumError : public IoError {
 public:
  using IoError::IoError;
};

/// Per-stripe-unit CRC32C catalog: the write path records the checksum of
/// each fully written stripe unit; the read path verifies served bytes
/// against it. Keyed by (file id, unit index) so recreated files can
/// orphan stale entries by taking a fresh id. Thread-safe (service threads
/// of all stripe directories share one catalog).
class ChecksumCatalog {
 public:
  struct Entry {
    std::uint32_t crc = 0;
    std::size_t valid_len = 0;  ///< checksummed prefix of the unit, bytes
  };

  void store(std::uint64_t file_id, std::uint64_t unit, Entry entry) {
    std::lock_guard lock(mu_);
    entries_[{file_id, unit}] = entry;
  }

  std::optional<Entry> lookup(std::uint64_t file_id, std::uint64_t unit) const {
    std::lock_guard lock(mu_);
    const auto it = entries_.find({file_id, unit});
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  /// Forget a unit (a rewrite not aligned to the unit start makes the
  /// recorded checksum stale — safety over coverage).
  void invalidate(std::uint64_t file_id, std::uint64_t unit) {
    std::lock_guard lock(mu_);
    entries_.erase({file_id, unit});
  }

  /// Forget every unit of a file (remove/recreate).
  void drop_file(std::uint64_t file_id) {
    std::lock_guard lock(mu_);
    auto it = entries_.lower_bound({file_id, 0});
    while (it != entries_.end() && it->first.first == file_id) it = entries_.erase(it);
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return entries_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Entry> entries_;
};

namespace detail {
/// Completion state shared between an IoRequest and its queued chunks.
///
/// The first error is moved in by the failing service thread and moved
/// out by the waiter, both under `mu`, so the waiter drops the last
/// reference to the exception it rethrows. A service thread that later
/// releases the last reference to this state frees nothing the waiter
/// touched.
struct RequestState {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t pending = 0;
  std::size_t errors = 0;    // every failed chunk is counted ...
  std::exception_ptr error;  // ... but only the first exception is kept

  void complete_one(std::exception_ptr e) {
    std::lock_guard lock(mu);
    if (e) {
      ++errors;
      if (!error) error = std::move(e);
    }
    if (--pending == 0) cv.notify_all();
  }
};
}  // namespace detail

/// Handle to an in-flight asynchronous read (the paper's iread handle;
/// wait() plays the role of ireadoff/iowait).
///
/// Queued jobs hold raw pointers into the owner's buffer, so the handle owns
/// the transfer's lifetime: destroying (or move-assigning over) a request
/// that is still pending drains it first, swallowing its errors. Declare
/// the handle after the buffer it reads into, so it is destroyed first.
class IoRequest {
 public:
  IoRequest() = default;
  IoRequest(IoRequest&&) noexcept = default;
  IoRequest& operator=(IoRequest&& other) noexcept {
    if (this != &other) {
      drain();
      state_ = std::move(other.state_);
      failed_chunks_ = other.failed_chunks_;
    }
    return *this;
  }
  ~IoRequest() { drain(); }

  /// Block until every chunk is serviced, then release the request state;
  /// rethrows the first chunk error. Idempotent: calling it again — or on
  /// a moved-from handle — is a no-op.
  void wait() {
    if (!state_) return;
    std::exception_ptr error;
    {
      std::unique_lock lock(state_->mu);
      state_->cv.wait(lock, [&] { return state_->pending == 0; });
      error = std::move(state_->error);
      failed_chunks_ = state_->errors;
    }
    state_.reset();
    if (error) std::rethrow_exception(error);
  }

  /// Bounded wait: true when every chunk completed within `timeout`. Does
  /// not consume the request or its errors — follow up with wait().
  bool wait_for(Seconds timeout) const {
    if (!state_) return true;
    std::unique_lock lock(state_->mu);
    return state_->cv.wait_for(lock, std::chrono::duration<double>(timeout),
                               [&] { return state_->pending == 0; });
  }

  /// Nonblocking completion poll (does not consume errors; call wait()).
  bool done() const {
    if (!state_) return true;
    std::lock_guard lock(state_->mu);
    return state_->pending == 0;
  }

  /// Chunk failures observed by the last consuming wait() on this handle.
  /// wait() rethrows only the first error; the rest are counted here so
  /// multi-chunk failures are never silently swallowed.
  std::size_t failed_chunks() const noexcept { return failed_chunks_; }

 private:
  friend class IoEngine;
  friend class StripedFile;  // attaches jobs to the shared state
  explicit IoRequest(std::shared_ptr<detail::RequestState> s) : state_(std::move(s)) {}

  /// Wait out every chunk and release the state without rethrowing.
  void drain() noexcept {
    if (!state_) return;
    {
      std::unique_lock lock(state_->mu);
      state_->cv.wait(lock, [&] { return state_->pending == 0; });
    }
    state_.reset();
  }

  std::shared_ptr<detail::RequestState> state_;
  std::size_t failed_chunks_ = 0;
};

/// Wait for `req` with a per-request bound. Chunks hold raw pointers into
/// the caller's buffer, so an expired request cannot be abandoned: on
/// timeout the request is drained (full wait) and TimeoutError is raised —
/// unless draining surfaces the chunks' own error, which takes precedence.
inline void wait_with_timeout(IoRequest& req, Seconds timeout,
                              const std::string& what) {
  if (timeout <= 0 || req.wait_for(timeout)) {
    req.wait();
    return;
  }
  req.wait();  // drain; rethrows a chunk error if one arrived while late
  throw TimeoutError(what + ": I/O request exceeded timeout");
}

/// Pool of per-stripe-directory service threads with optional bandwidth
/// throttling.
class IoEngine {
 public:
  /// One piece of a (possibly list-I/O) job: transfer `len` bytes between
  /// segment offset `offset` and memory `buf`. The integrity fields tie
  /// the piece to stripe unit `unit_index` of the file, whose data starts
  /// at segment offset `unit_seg_offset` — writes record the unit's CRC32C
  /// in the catalog, reads verify against it.
  struct Piece {
    std::uint64_t offset = 0;
    std::byte* buf = nullptr;
    std::size_t len = 0;
    std::uint64_t unit_index = 0;
    std::uint64_t unit_seg_offset = 0;
  };

  /// One job serviced by one stripe-directory thread. With `straggler_sched`
  /// OFF a job is one stripe-unit chunk (`pieces` holds exactly one
  /// entry). With it ON, a logical request is coalesced into one
  /// list-I/O job per (server, segment fd): `pieces` carries every
  /// noncontiguous range that server serves from that segment, serviced in
  /// one dequeue (the per-job fixed latency is paid once — the Ching et al.
  /// list-I/O effect).
  struct Job {
    int fd = -1;
    bool is_write = false;
    std::vector<Piece> pieces;
    std::shared_ptr<detail::RequestState> state;
    ChecksumCatalog* checksums = nullptr;
    std::uint64_t file_id = 0;
    std::size_t server = 0;  ///< queue the job is submitted to

    std::size_t total_len() const {
      std::size_t n = 0;
      for (const Piece& p : pieces) n += p.len;
      return n;
    }
  };

  /// One service thread per stripe directory (`config.stripe_factor`);
  /// each services its queue at `config.server_bandwidth` bytes/s (0 =
  /// unthrottled) plus `config.server_latency` seconds fixed cost per job.
  /// `config.quarantine_threshold` > 0 arms the circuit breaker.
  explicit IoEngine(const PfsConfig& config);
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  std::size_t servers() const noexcept { return queues_.size(); }

  /// Create a request expecting `chunks` completions.
  IoRequest make_request(std::size_t chunks);

  /// Enqueue `job` on stripe-directory `job.server`'s queue.
  void submit(Job job);

  /// Snapshot of this engine's histograms and counters (see obs::IoStats;
  /// the retry and fault-plan fields stay 0 — the engine does not see them).
  obs::IoStats stats() const;

  /// True when `server`'s circuit breaker is open — clients holding a
  /// replica should redirect reads away from it. With a probe interval
  /// configured, an open breaker transitions to half-open once the
  /// interval elapses and this returns false: the next client chunk is the
  /// probe, and its outcome closes the breaker (server rejoins,
  /// `breaker_reopened` bumps) or re-opens it for another interval.
  bool quarantined(std::size_t server) const;

  /// Read pieces StripedFile placed on a replica at submit; they are what
  /// stats().chunks_stolen counts.
  void record_chunks_stolen(std::uint64_t pieces) {
    chunks_stolen_.fetch_add(pieces, std::memory_order_relaxed);
  }

  // ------------------------------------------------------- observability --
  // Per-engine distributions (reset-free: an engine lives for one mount).

  /// Queue depth of the chunk's stripe-directory queue, sampled at every
  /// submit — the paper's funnel: small stripe factors produce deep queues.
  const obs::Histogram& queue_depth() const noexcept { return queue_depth_; }

  /// Wall seconds from dequeue to completion per chunk, including the
  /// modeled service rate — what a client's wait is made of.
  const obs::Histogram& service_time() const noexcept { return service_time_; }

  /// Wall seconds a logical StripedFile submit spent splitting and
  /// enqueueing chunks (client-side cost before any service happens).
  const obs::Histogram& submit_latency() const noexcept { return submit_latency_; }
  void record_submit_latency(double seconds) { submit_latency_.record(seconds); }

  // ------------------------------------------------- service-rate model --
  /// Per-server seconds-per-byte estimate: completed jobs' service time
  /// (modeled throttle sleep included) per byte, averaged with byte
  /// weights that halve at every completion. Each job's rate is first
  /// confirmed by the previous job's — the lesser of the two counts — so
  /// one stalled job never marks a server slow. Writes feed it too, so it
  /// is warm before the first read. A cold server (fewer than two completed
  /// jobs) reports the median of the warm ones; 0 while all are cold.
  std::vector<double> sec_per_byte() const;

  /// Bytes waiting in `server`'s queue (added at enqueue, removed at
  /// dequeue; the job in service is no longer counted).
  std::uint64_t queued_bytes(std::size_t server) const {
    return queues_[server]->queued_bytes.load(std::memory_order_relaxed);
  }

  /// Slowness verdict per server: its seconds-per-byte estimate exceeds
  /// kSlowFactor x the median across warm servers. The one signal behind
  /// replica-balanced read placement.
  std::vector<bool> slow_servers() const;

 private:
  struct Queue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> jobs;
    bool stop = false;
    std::atomic<std::uint64_t> queued_bytes{0};
    std::atomic<double> sec_per_byte{0.0};
    // Decayed service totals behind sec_per_byte and the previous job's
    // seconds per byte; service thread only.
    double decayed_seconds = 0.0;
    double decayed_bytes = 0.0;
    double last_sample = 0.0;
  };

  /// Grow-only, uninitialized byte buffer owned by one service thread, so
  /// the read hot path neither allocates nor zero-fills per piece or job.
  class Scratch {
   public:
    std::byte* get(std::size_t n) {
      if (n > capacity_) {
        data_ = std::make_unique_for_overwrite<std::byte[]>(n);
        capacity_ = n;
      }
      return data_.get();
    }

   private:
    std::unique_ptr<std::byte[]> data_;
    std::size_t capacity_ = 0;
  };

  /// Per-server circuit breaker: consecutive chunk failures trip it open;
  /// with a probe interval, open decays to half-open where one client
  /// chunk is admitted as the probe.
  struct Breaker {
    enum State : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };
    std::atomic<std::size_t> consecutive_failures{0};
    std::atomic<int> state{kClosed};
    std::atomic<double> opened_at{0.0};  ///< monotonic seconds when opened
  };

  void service_loop(std::size_t server);
  void service_job(std::size_t server, Job& job, Scratch& unit_scratch);
  void note_outcome(std::size_t server, bool failed);
  void note_rate(Queue& q, double seconds, std::size_t bytes);

  double bandwidth_;
  double latency_;
  std::size_t quarantine_threshold_;
  Seconds breaker_probe_interval_;
  std::size_t straggler_servers_;
  double straggler_slowdown_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::unique_ptr<Breaker>> breakers_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> bytes_serviced_{0};
  std::atomic<std::uint64_t> corrupt_chunks_{0};
  std::atomic<std::uint64_t> quarantined_count_{0};
  std::atomic<std::uint64_t> chunks_stolen_{0};
  std::atomic<std::uint64_t> breaker_reopened_{0};
  obs::Histogram queue_depth_;
  obs::Histogram service_time_;
  obs::Histogram submit_latency_;
  std::vector<std::unique_ptr<obs::Histogram>> server_service_time_;
  // Fault-injection site and trace-counter names, precomputed so the hot
  // path never formats.
  std::vector<std::string> read_sites_;   // "pfs.server.read.sdNNN"
  std::vector<std::string> write_sites_;  // "pfs.server.write.sdNNN"
  std::vector<std::string> depth_names_;  // "queue_depth.sdNNN"
};

}  // namespace pstap::pfs
