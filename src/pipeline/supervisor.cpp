#include "pipeline/supervisor.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/wall_clock.hpp"
#include "mp/mailbox.hpp"
#include "mp/world.hpp"
#include "obs/trace.hpp"

namespace pstap::pipeline {

namespace {

void trace_event(const char* name, int rank, std::string_view detail) {
  // Unconditional: instant() also feeds the always-on flight ring, so a
  // post-mortem dump keeps the rank-death / failover / abort breadcrumbs
  // even when tracing itself is off.
  obs::TraceRecorder::global().instant("supervisor", name, rank, -1, detail);
}

}  // namespace

Supervisor::Supervisor(mp::World& world, int ranks, SupervisorOptions opts)
    : world_(world),
      opts_(opts),
      beats_(static_cast<std::size_t>(ranks)),
      failed_flags_(static_cast<std::size_t>(ranks)),
      ranks_(static_cast<std::size_t>(ranks)),
      failover_(static_cast<std::size_t>(ranks), false) {
  PSTAP_REQUIRE(ranks >= 1, "supervisor needs at least one rank");
  PSTAP_REQUIRE(opts_.heartbeat_interval > 0, "heartbeat interval must be positive");
  rings_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    rings_.push_back(std::make_unique<ckpt::CheckpointRing>(opts_.checkpoint_depth));
  }
  const Seconds now = monotonic_now();
  for (auto& b : beats_) b.store(now, std::memory_order_relaxed);
  monitor_ = std::thread([this] { monitor_loop(); });
}

Supervisor::~Supervisor() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  for (auto& t : respawned_) {
    if (t.joinable()) t.join();
  }
}

void Supervisor::set_rank_body(std::function<void(int)> body) {
  body_ = std::move(body);
}

void Supervisor::set_failover_ranks(const std::vector<int>& ranks) {
  for (const int r : ranks) {
    failover_.at(static_cast<std::size_t>(r)) = true;
  }
}

void Supervisor::beat(int rank) {
  beats_[static_cast<std::size_t>(rank)].store(monotonic_now(),
                                               std::memory_order_relaxed);
}

void Supervisor::run_rank(int rank) {
  PSTAP_CHECK(body_ != nullptr, "supervisor rank body not set");
  beat(rank);
  try {
    body_(rank);
    std::lock_guard lock(mu_);
    ranks_[static_cast<std::size_t>(rank)].state = RankState::kFinished;
  } catch (const fault::InjectedCrash& e) {
    // Everything the rank sent is already in peer mailboxes (sends are
    // synchronous deposits), and the body has fully unwound — the
    // replacement the monitor spawns races nothing.
    {
      std::lock_guard lock(mu_);
      RankInfo& info = ranks_[static_cast<std::size_t>(rank)];
      info.state = RankState::kDeadPending;
      info.death_time = monotonic_now();
      info.crash_site = e.site();
    }
    trace_event("supervisor.rank_dead", rank, e.site());
  } catch (const mp::MailboxClosed&) {
    // Abort teardown: the rank unwound cleanly instead of hanging.
    std::lock_guard lock(mu_);
    ranks_[static_cast<std::size_t>(rank)].state = RankState::kFinished;
  } catch (...) {
    // A real (non-injected) rank error: recovery has no replay story for
    // it — record it and unwind the whole world so nothing hangs.
    std::lock_guard lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
    ranks_[static_cast<std::size_t>(rank)].state = RankState::kFinished;
    abort_locked("rank " + std::to_string(rank) + " failed with a non-injected error");
  }
  cv_.notify_all();
}

void Supervisor::handle_deaths_locked(Seconds now) {
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankInfo& info = ranks_[r];
    if (info.state != RankState::kDeadPending) continue;
    const int rank = static_cast<int>(r);
    const Seconds delay = now - info.death_time;
    ++stats_.crashes_detected;
    stats_.max_detection_delay = std::max(stats_.max_detection_delay, delay);
    if (failover_[r]) {
      // Separate I/O task: abandon the rank; Doppler ranks observe
      // failed() and promote to embedded reads. The release store is the
      // publication point probe-after-failed relies on.
      info.state = RankState::kAbandoned;
      ++stats_.io_failovers;
      failed_flags_[r].store(true, std::memory_order_release);
      trace_event("supervisor.failover", rank, info.crash_site);
    } else if (aborted_) {
      info.state = RankState::kAbandoned;
    } else if (total_respawns_ >= opts_.max_respawns) {
      info.state = RankState::kAbandoned;
      abort_locked("respawn budget (" + std::to_string(opts_.max_respawns) +
                   ") exhausted at rank " + std::to_string(rank));
    } else {
      ++total_respawns_;
      ++stats_.ranks_respawned;
      info.state = RankState::kAlive;
      trace_event("supervisor.respawn", rank, info.crash_site);
      respawned_.emplace_back([this, rank] { run_rank(rank); });
    }
  }
}

void Supervisor::monitor_loop() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock,
                 std::chrono::duration<double>(opts_.heartbeat_interval));
    if (stop_) break;
    const Seconds now = monotonic_now();
    handle_deaths_locked(now);
    cv_.notify_all();  // finish() waits on terminal-state transitions
    if (opts_.hang_timeout > 0 && !aborted_) {
      // Watchdog: heartbeat silence across every non-terminal rank means
      // the run is wedged (e.g. an unsupervised deadlock) — abort it.
      Seconds latest = -1;
      for (std::size_t r = 0; r < ranks_.size(); ++r) {
        if (ranks_[r].state != RankState::kAlive) continue;
        latest = std::max(latest, beats_[r].load(std::memory_order_relaxed));
      }
      if (latest >= 0 && now - latest > opts_.hang_timeout) {
        abort_locked("no heartbeat from any live rank in " +
                     std::to_string(opts_.hang_timeout) + " s");
      }
    }
  }
  // Drain any death reported between the last poll and stop: finish()
  // only stops the monitor once every rank is terminal, so this is just
  // belt and braces for destructor-path teardown.
  handle_deaths_locked(monotonic_now());
}

void Supervisor::abort_locked(const std::string& why) {
  if (aborted_) return;
  aborted_ = true;
  abort_reason_ = why;
  aborted_flag_.store(true, std::memory_order_release);
  trace_event("supervisor.abort", -1, why);
  // Black-box dump before anything unwinds: the run is lost, but the trace
  // so far plus the flight ring's last events land next to where the trace
  // session would have exported (`<trace>.crash`). The session's own export
  // still runs on the unwind path and overwrites the truncated trace with
  // the final one — the ring dump is the part only this hook can save.
  obs::dump_crash_artifacts("supervisor abort: " + why);
  // Wake every blocked receiver world-wide: they unwind with
  // MailboxClosed and run_rank marks them finished.
  world_.close_all_mailboxes();
  cv_.notify_all();
}

bool Supervisor::all_terminal_locked() const {
  for (const RankInfo& info : ranks_) {
    if (info.state == RankState::kAlive || info.state == RankState::kDeadPending) {
      return false;
    }
  }
  return true;
}

void Supervisor::finish() {
  {
    // The world's threads have returned, but a replacement may still be
    // replaying its tail CPIs (its original thread died and returned
    // early) — wait for every rank to reach a terminal state before
    // stopping the monitor, or a death reported now would go unhandled.
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return all_terminal_locked(); });
    stop_ = true;
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  for (auto& t : respawned_) {
    if (t.joinable()) t.join();
  }
  respawned_.clear();
  std::lock_guard lock(mu_);
  if (first_error_) std::rethrow_exception(first_error_);
  if (aborted_) {
    throw RuntimeError("supervised run aborted: " + abort_reason_);
  }
}

obs::RecoveryStats Supervisor::stats() const {
  std::lock_guard lock(mu_);
  obs::RecoveryStats out = stats_;
  out.promoted_reads = promoted_reads_.load(std::memory_order_relaxed);
  for (const auto& ring : rings_) {
    out.replayed_messages += ring->messages_replayed();
    out.checkpoint_peak_bytes += ring->peak_bytes();
  }
  return out;
}

}  // namespace pstap::pipeline
