// Supervision and recovery for the functional pipeline runner.
//
// The paper's machines lose nodes; the reproduction's threads "lose" ranks
// via fault::InjectedCrash. The Supervisor makes a run survive that: every
// rank executes under run_rank(), which catches an injected crash and
// reports the death; a monitor thread (woken by the report, and polling at
// the heartbeat interval as a backstop) then either
//
//   * respawns the rank — a fresh thread re-enters the same node function
//     with a Comm rebuilt from the World. The replacement resumes at the
//     rank's checkpoint watermark + 1 and replays in-flight CPIs from the
//     rank's CheckpointRing (receives consult the ring before the mailbox;
//     mailboxes persist across rank death, so unconsumed messages are still
//     queued) — or
//
//   * abandons it, when the rank belongs to the separate I/O task: Doppler
//     ranks observe failed() and promote to embedded reads for the
//     remaining CPIs (the paper's I/O-task failover).
//
// Crash sites sit only at CPI start and send-phase start, so a dead rank's
// per-CPI sends are all-or-nothing: a replayed CPI never double-sends and
// downstream FIFO order is preserved without per-CPI tags.
//
// If recovery is impossible (respawn budget exhausted, a non-injected rank
// error, or a world-wide heartbeat silence) the supervisor aborts by
// closing every mailbox: blocked ranks unwind with mp::MailboxClosed
// instead of hanging, and finish() rethrows the cause.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/checkpoint.hpp"
#include "common/types.hpp"
#include "obs/stats.hpp"

namespace pstap::mp {
class World;
}

namespace pstap::pipeline {

struct SupervisorOptions {
  bool enabled = false;

  /// Monitor poll period — the bound on death-detection delay (deaths also
  /// wake the monitor immediately, so typical detection is far faster).
  Seconds heartbeat_interval = 10e-3;

  /// Watchdog: if no surviving rank heartbeats for this long the run is
  /// aborted instead of hanging (0 disables).
  Seconds hang_timeout = 60.0;

  /// Max distinct in-flight CPIs per rank's CheckpointRing.
  std::size_t checkpoint_depth = 4;

  /// Total respawns allowed across the run; exceeding it aborts.
  int max_respawns = 8;
};

class Supervisor {
 public:
  Supervisor(mp::World& world, int ranks, SupervisorOptions opts);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// The per-rank node body, invoked by run_rank() for both the original
  /// spawn and every respawn. Must be set before the world runs. The body
  /// builds its own Comm (World::make_comm) so respawns are self-contained.
  void set_rank_body(std::function<void(int)> body);

  /// Ranks that fail over instead of respawning (the separate I/O task).
  void set_failover_ranks(const std::vector<int>& ranks);

  /// Execute the rank body under crash supervision. Call from the
  /// World::run closure; the monitor calls it again on respawn.
  void run_rank(int rank);

  /// Liveness beat, called by each rank at every CPI start.
  void beat(int rank);

  /// True once `rank` crashed and was abandoned (failover ranks only).
  /// All messages the rank ever sent are visible in mailboxes before this
  /// turns true, so probe-after-failed cannot miss a late send.
  bool failed(int rank) const {
    return failed_flags_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
  }

  /// True once the run is aborting; pollers must stop waiting for peers.
  bool aborted() const { return aborted_flag_.load(std::memory_order_acquire); }

  ckpt::CheckpointRing& ring(int rank) {
    return *rings_[static_cast<std::size_t>(rank)];
  }

  /// Doppler bookkeeping: one slab piece self-read after I/O failover.
  void note_promoted_read() {
    promoted_reads_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Wait for every rank to reach a terminal state (the world may return
  /// while a respawned thread is still replaying), stop the monitor, join
  /// respawned threads, and rethrow the abort cause if the run failed.
  void finish();

  /// Counters (ring-derived fields folded in on each call). Leaves
  /// `injected_crashes` at 0: the fault plan, not the supervisor, counts it.
  obs::RecoveryStats stats() const;

 private:
  enum class RankState { kAlive, kDeadPending, kAbandoned, kFinished };

  struct RankInfo {
    RankState state = RankState::kAlive;
    Seconds death_time = 0;
    std::string crash_site;
  };

  void monitor_loop();
  void handle_deaths_locked(Seconds now);
  void abort_locked(const std::string& why);
  bool all_terminal_locked() const;

  mp::World& world_;
  SupervisorOptions opts_;
  std::function<void(int)> body_;
  std::vector<std::unique_ptr<ckpt::CheckpointRing>> rings_;

  // Lock-free liveness/failover signals (polled from hot paths).
  std::vector<std::atomic<Seconds>> beats_;      // last beat, monotonic_now()
  std::vector<std::atomic<bool>> failed_flags_;  // abandoned ranks
  std::atomic<bool> aborted_flag_{false};
  std::atomic<std::uint64_t> promoted_reads_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<RankInfo> ranks_;
  std::vector<bool> failover_;
  std::vector<std::thread> respawned_;
  std::thread monitor_;
  bool stop_ = false;
  bool aborted_ = false;
  std::string abort_reason_;
  std::exception_ptr first_error_;
  int total_respawns_ = 0;
  obs::RecoveryStats stats_;  // counter fields maintained under mu_
};

}  // namespace pstap::pipeline
