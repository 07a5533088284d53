#include "pfs/straggler_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/wall_clock.hpp"

namespace pstap::pfs {

namespace {
/// Median of an unsorted sample (destructive). Returns 0 when empty.
double median(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  return v[mid];
}
}  // namespace

StragglerScheduler::StragglerScheduler(IoEngine& engine, const PfsConfig& config)
    : engine_(engine), cfg_(config), windows_(engine.servers()) {
  last_rebaseline_ = monotonic_now();
  thread_ = std::thread([this] { run(); });
}

StragglerScheduler::~StragglerScheduler() {
  {
    std::lock_guard lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
}

Seconds StragglerScheduler::assign_deadline(std::size_t /*server*/) const {
  const double budget = budget_.load(std::memory_order_relaxed);
  if (budget <= 0) return 0;  // quantiles still cold: no deadline yet
  return monotonic_now() + budget;
}

void StragglerScheduler::track(const IoEngine::Job& job) {
  std::lock_guard lock(tracked_mu_);
  tracked_.push_back(Tracked{job});
}

void StragglerScheduler::run() {
  std::unique_lock lock(stop_mu_);
  for (;;) {
    stop_cv_.wait_for(lock, std::chrono::duration<double>(cfg_.sched_tick),
                      [&] { return stop_; });
    if (stop_) return;
    lock.unlock();
    const Seconds now = monotonic_now();
    refresh_quantiles(now);
    if (cfg_.hedged_reads) hedge_scan(now);
    steal_scan();
    reorder_queues();
    lock.lock();
  }
}

double StragglerScheduler::window_quantile(const Window& w, double p) const {
  if (w.samples == 0) return 0.0;
  const std::uint64_t target = static_cast<std::uint64_t>(std::ceil(
      p * static_cast<double>(w.samples)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    seen += w.delta[i];
    if (seen >= target && w.delta[i] > 0) {
      // Geometric midpoint of the bucket (ratio sqrt(2)).
      const double lower = obs::Histogram::bucket_lower_bound(i);
      return lower * std::pow(2.0, 0.25);
    }
  }
  return 0.0;
}

void StragglerScheduler::refresh_quantiles(Seconds now) {
  const std::size_t n = engine_.servers();
  const bool rebase = now - last_rebaseline_ >= cfg_.sched_window;
  std::vector<double> pqs;
  pqs.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    Window& w = windows_[s];
    const obs::Histogram& h = engine_.server_service_time(s);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
      const std::uint64_t cur = h.bucket_count(i);
      w.delta[i] = cur - w.baseline[i];
      total += w.delta[i];
      if (rebase) w.baseline[i] = cur;
    }
    w.samples = total;
    // Quantiles are sticky: a freshly re-baselined (thin) window keeps the
    // previous estimate instead of flapping back to "cold".
    if (total >= cfg_.deadline_min_samples) {
      w.pq = window_quantile(w, kDeadlineQuantile);
    }
    if (w.pq > 0) pqs.push_back(w.pq);
  }
  if (rebase) last_rebaseline_ = now;

  if (pqs.empty()) return;  // every server still cold — keep budget at 0
  // "Healthy" = the MEDIAN server: one straggler cannot drag the deadline
  // up with its own slow history (it is exactly the server we must not
  // let set the bar).
  const double healthy_pq = median(pqs);
  budget_.store(std::max(cfg_.deadline_floor, kHedgeMultiplier * healthy_pq),
                std::memory_order_relaxed);
}

void StragglerScheduler::hedge_scan(Seconds now) {
  const double budget = budget_.load(std::memory_order_relaxed);
  std::lock_guard lock(tracked_mu_);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < tracked_.size(); ++i) {
    Tracked& t = tracked_[i];
    detail::ChunkState& chunk = *t.job.chunk;
    if (chunk.claimed.load(std::memory_order_acquire)) continue;  // done: drop
    bool keep = true;
    const double started = chunk.started_at.load(std::memory_order_acquire);
    if (budget > 0 && started > 0 && now - started > budget &&
        !chunk.hedged.load(std::memory_order_relaxed)) {
      engine_.deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      chunk.hedged.store(true, std::memory_order_relaxed);
      chunk.outstanding.fetch_add(1, std::memory_order_acq_rel);
      if (chunk.claimed.load(std::memory_order_acquire)) {
        // Lost the race against completion — retract the reservation.
        chunk.outstanding.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      engine_.hedges_launched_.fetch_add(1, std::memory_order_relaxed);
      IoEngine::Job backup = t.job;
      std::swap(backup.fd, backup.replica_fd);
      backup.server = t.job.replica_server;
      backup.replica_server = t.job.server;
      backup.is_hedge = true;
      backup.deadline = 0;
      // Front of the replica queue: the hedge races the straggler's
      // service time, not the replica's backlog.
      engine_.enqueue(backup.server, std::move(backup), /*front=*/true);
      keep = false;  // at most one hedge per chunk — nothing left to watch
    }
    if (keep) {
      if (kept != i) tracked_[kept] = std::move(tracked_[i]);
      ++kept;
    }
  }
  tracked_.resize(kept);
}

void StragglerScheduler::steal_scan() {
  const std::size_t n = engine_.servers();
  const std::vector<bool> slow = engine_.slow_servers();
  const std::vector<double> rate = engine_.sec_per_byte();
  std::vector<double> incoming(n, 0.0);  // bytes this scan moved onto a server
  for (std::size_t s = 0; s < n; ++s) {
    const bool failing = engine_.quarantined(s);
    if (!failing && !slow[s]) continue;
    std::vector<IoEngine::Job> moved;
    {
      IoEngine::Queue& q = *engine_.queues_[s];
      std::lock_guard lock(q.mu);
      double ahead = 0;  // queued bytes this server serves before `j`
      for (auto it = q.jobs.begin(); it != q.jobs.end();) {
        IoEngine::Job& j = *it;
        const std::size_t r = j.replica_server;
        const double bytes = static_cast<double>(j.total_len());
        // Off a merely slow server, a job moves only when its replica is
        // expected to finish it at least the hedge floor sooner — the
        // estimate and the gate placement uses.
        const bool eligible =
            !j.is_write && !j.is_hedge && j.replica_fd >= 0 && r < n && !slow[r] &&
            !engine_.quarantined(r) &&
            !(j.chunk && j.chunk->claimed.load(std::memory_order_acquire)) &&
            (failing ||
             (ahead + bytes) * rate[s] -
                     (static_cast<double>(engine_.queued_bytes(r)) + incoming[r] + bytes) *
                         rate[r] >=
                 cfg_.deadline_floor);
        if (eligible) {
          incoming[r] += bytes;
          q.queued_bytes.fetch_sub(j.total_len(), std::memory_order_relaxed);
          moved.push_back(std::move(j));
          it = q.jobs.erase(it);
        } else {
          ahead += bytes;
          ++it;
        }
      }
    }
    for (IoEngine::Job& j : moved) {
      // Retarget to the replica copy; the slow server becomes the fallback.
      std::swap(j.fd, j.replica_fd);
      const std::size_t target = j.replica_server;
      j.replica_server = s;
      engine_.chunks_stolen_.fetch_add(j.pieces.size(), std::memory_order_relaxed);
      if (j.chunk) {
        // Keep the hedge template in sync so a later hedge goes back to
        // the copy we just walked away from, not to the queue we chose.
        std::lock_guard lock(tracked_mu_);
        for (Tracked& t : tracked_) {
          if (t.job.chunk.get() == j.chunk.get()) {
            t.job.fd = j.fd;
            t.job.replica_fd = j.replica_fd;
            t.job.server = target;
            t.job.replica_server = j.replica_server;
            break;
          }
        }
      }
      // Keeps its original deadline: after the EDF reorder it drains ahead
      // of the fast server's fresher work.
      engine_.enqueue(target, std::move(j), /*front=*/false);
    }
  }
}

void StragglerScheduler::reorder_queues() {
  for (auto& qp : engine_.queues_) {
    IoEngine::Queue& q = *qp;
    std::lock_guard lock(q.mu);
    if (q.jobs.size() < 2) continue;
    std::stable_sort(q.jobs.begin(), q.jobs.end(),
                     [](const IoEngine::Job& a, const IoEngine::Job& b) {
                       const double da = a.deadline > 0 ? a.deadline : 1e300;
                       const double db = b.deadline > 0 ? b.deadline : 1e300;
                       return da < db;
                     });
  }
}

}  // namespace pstap::pfs
