#include "pfs/io_engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/wall_clock.hpp"
#include "obs/trace.hpp"

namespace pstap::pfs {

IoEngine::IoEngine(const PfsConfig& config)
    : bandwidth_(config.server_bandwidth),
      latency_(config.server_latency),
      quarantine_threshold_(config.quarantine_threshold),
      breaker_probe_interval_(config.breaker_probe_interval),
      straggler_servers_(config.straggler_servers),
      straggler_slowdown_(config.straggler_slowdown) {
  const std::size_t servers = config.stripe_factor;
  PSTAP_REQUIRE(servers >= 1, "IoEngine needs at least one server");
  queues_.reserve(servers);
  breakers_.reserve(servers);
  for (std::size_t s = 0; s < servers; ++s) queues_.push_back(std::make_unique<Queue>());
  for (std::size_t s = 0; s < servers; ++s) breakers_.push_back(std::make_unique<Breaker>());
  server_service_time_.reserve(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    server_service_time_.push_back(std::make_unique<obs::Histogram>());
  }
  read_sites_.reserve(servers);
  write_sites_.reserve(servers);
  depth_names_.reserve(servers);
  auto& recorder = obs::TraceRecorder::global();
  for (std::size_t s = 0; s < servers; ++s) {
    const std::string dir = stripe_dir_name(s);
    read_sites_.push_back("pfs.server.read." + dir);
    write_sites_.push_back("pfs.server.write." + dir);
    depth_names_.push_back("queue_depth." + dir);
    recorder.set_process_name(
        obs::kIoServerPidBase + static_cast<std::int32_t>(s), "pfs server " + dir);
  }
  threads_.reserve(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    threads_.emplace_back([this, s] { service_loop(s); });
  }
}

IoEngine::~IoEngine() {
  for (auto& q : queues_) {
    {
      std::lock_guard lock(q->mu);
      q->stop = true;
    }
    q->cv.notify_all();
  }
  for (auto& t : threads_) t.join();
}

IoRequest IoEngine::make_request(std::size_t chunks) {
  auto state = std::make_shared<detail::RequestState>();
  state->pending = chunks;
  return IoRequest(std::move(state));
}

void IoEngine::submit(Job job) {
  const std::size_t server = job.server;
  PSTAP_REQUIRE(server < queues_.size(), "server index out of range");
  PSTAP_REQUIRE(job.state != nullptr, "job has no request state");
  Queue& q = *queues_[server];
  std::size_t depth = 0;
  {
    std::lock_guard lock(q.mu);
    q.queued_bytes.fetch_add(job.total_len(), std::memory_order_relaxed);
    q.jobs.push_back(std::move(job));
    depth = q.jobs.size();
  }
  // Depth sampled at submit time: with a small stripe factor the same
  // logical read funnels through fewer queues, so each sample is deeper.
  queue_depth_.record(static_cast<double>(depth));
  if (obs::trace_enabled()) {
    obs::TraceRecorder::global().counter(
        "io", depth_names_[server],
        obs::kIoServerPidBase + static_cast<std::int32_t>(server),
        static_cast<double>(depth));
  }
  q.cv.notify_one();
}

namespace {
/// Lower median of a sample (destructive); 0 when empty. The lower one, so
/// with two servers the faster sets the reference.
double lower_median(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>((v.size() - 1) / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}
}  // namespace

void IoEngine::note_rate(Queue& q, double seconds, std::size_t bytes) {
  const double n = static_cast<double>(bytes);
  const double sample = seconds / n;
  if (q.last_sample > 0) {  // confirmed by the previous job (see sec_per_byte)
    q.decayed_seconds = 0.5 * q.decayed_seconds + std::min(sample, q.last_sample) * n;
    q.decayed_bytes = 0.5 * q.decayed_bytes + n;
    q.sec_per_byte.store(q.decayed_seconds / q.decayed_bytes,
                         std::memory_order_relaxed);
  }
  q.last_sample = sample;
}

std::vector<double> IoEngine::sec_per_byte() const {
  std::vector<double> rates, warm;
  rates.reserve(queues_.size());
  for (const auto& q : queues_) {
    rates.push_back(q->sec_per_byte.load(std::memory_order_relaxed));
    if (rates.back() > 0) warm.push_back(rates.back());
  }
  const double median = lower_median(warm);
  for (double& r : rates) {
    if (r == 0) r = median;
  }
  return rates;
}

std::vector<bool> IoEngine::slow_servers() const {
  std::vector<double> rates = sec_per_byte();
  std::vector<double> sorted = rates;
  const double median = lower_median(sorted);
  std::vector<bool> slow(rates.size(), false);
  for (std::size_t s = 0; s < rates.size(); ++s) {
    slow[s] = median > 0 && rates[s] > kSlowFactor * median;
  }
  return slow;
}

bool IoEngine::quarantined(std::size_t server) const {
  Breaker& breaker = *breakers_[server];
  int state = breaker.state.load(std::memory_order_acquire);
  if (state == Breaker::kClosed) return false;
  if (state == Breaker::kOpen && breaker_probe_interval_ > 0 &&
      monotonic_now() - breaker.opened_at.load(std::memory_order_relaxed) >=
          breaker_probe_interval_) {
    // Interval elapsed: decay open -> half-open. The caller (a client about
    // to route a chunk) becomes the probe — its outcome closes or re-opens.
    int expected = Breaker::kOpen;
    breaker.state.compare_exchange_strong(expected, Breaker::kHalfOpen,
                                          std::memory_order_acq_rel);
    state = breaker.state.load(std::memory_order_acquire);
  }
  return state == Breaker::kOpen;
}

// Transfer the job's pieces between disk and memory.
void IoEngine::service_job(std::size_t server, Job& job, Scratch& unit_scratch) {
  // Fault injection: armed delays sleep here (inside the service thread, so
  // they occupy this stripe directory exactly like a slow disk); armed
  // errors throw and are captured as the job's error; a partial-read
  // decision truncates the transfer and then fails it; a corruption
  // decision bit-flips the payload — caught below when the unit has a
  // recorded checksum. One decision per job: with list-I/O a coalesced job
  // is one server request, so it draws one fault like any other request.
  const fault::Decision decision =
      fault::inject(job.is_write ? write_sites_[server] : read_sites_[server]);
  const std::size_t total = job.total_len();
  const std::size_t effective_total =
      (!job.is_write && decision.deliver_fraction < 1.0)
          ? static_cast<std::size_t>(static_cast<double>(total) *
                                     decision.deliver_fraction)
          : total;
  std::size_t budget = effective_total;

  // Raw positioned transfer of `len` bytes at segment offset `offset`.
  const auto transfer = [&job](std::byte* buf, std::uint64_t offset,
                               std::size_t len, bool is_write) {
    std::size_t moved = 0;
    while (moved < len) {
      const ssize_t n =
          is_write ? ::pwrite(job.fd, buf + moved, len - moved,
                              static_cast<off_t>(offset + moved))
                   : ::pread(job.fd, buf + moved, len - moved,
                             static_cast<off_t>(offset + moved));
      if (n < 0) {
        if (errno == EINTR) continue;
        PSTAP_IO_FAIL(is_write ? "pwrite failed" : "pread failed", errno);
      }
      if (n == 0) PSTAP_IO_FAIL("unexpected EOF inside a striped segment", 0);
      moved += static_cast<std::size_t>(n);
    }
  };

  bool corrupt_pending = decision.corrupt;
  for (const Piece& piece : job.pieces) {
    const std::size_t piece_len = std::min(piece.len, budget);
    budget -= piece_len;

    const std::uint64_t in_unit = piece.offset - piece.unit_seg_offset;
    std::optional<ChecksumCatalog::Entry> entry;
    if (job.checksums != nullptr) {
      entry = job.checksums->lookup(job.file_id, piece.unit_index);
    }

    if (!job.is_write && entry && piece_len == piece.len &&
        in_unit + piece.len <= entry->valid_len) {
      // Verified read: serve the unit's whole checksummed prefix into a
      // scratch buffer, check it end-to-end against the CRC recorded at
      // write time, then hand only the requested sub-range over — a
      // corrupted payload never lands in the consumer's buffer.
      std::byte* const unit = unit_scratch.get(entry->valid_len);
      transfer(unit, piece.unit_seg_offset, entry->valid_len, /*is_write=*/false);
      if (corrupt_pending && piece.len > 0) {
        unit[in_unit + piece.len / 2] ^= std::byte{0xFF};
        corrupt_pending = false;
      }
      if (crc32c(unit, entry->valid_len) != entry->crc) {
        corrupt_chunks_.fetch_add(1, std::memory_order_relaxed);
        if (obs::trace_enabled()) {
          obs::TraceRecorder::global().instant(
              "io", "io.checksum_mismatch",
              obs::kIoServerPidBase + static_cast<std::int32_t>(server), -1,
              read_sites_[server]);
        }
        throw ChecksumError("checksum mismatch in unit " +
                            std::to_string(piece.unit_index) + " served by " +
                            read_sites_[server]);
      }
      std::copy_n(unit + in_unit, piece.len, piece.buf);
    } else {
      transfer(piece.buf, piece.offset, piece_len, job.is_write);
      if (!job.is_write && corrupt_pending && piece.len > 0) {
        // No checksum recorded for this unit: the flip is silent, which
        // is exactly the exposure the catalog exists to close.
        piece.buf[piece.len / 2] ^= std::byte{0xFF};
        corrupt_pending = false;
      }
      if (job.is_write && job.checksums != nullptr) {
        if (in_unit == 0) {
          job.checksums->store(job.file_id, piece.unit_index,
                               {crc32c(piece.buf, piece.len), piece.len});
        } else {
          // A rewrite not aligned to the unit start leaves the recorded
          // CRC stale — drop it rather than verify against garbage.
          job.checksums->invalidate(job.file_id, piece.unit_index);
        }
        if (corrupt_pending && piece.len > 0) {
          // Persistent media corruption: flip one byte on disk *after*
          // recording the intent CRC, so the next read detects it.
          std::byte flipped = piece.buf[piece.len / 2] ^ std::byte{0xFF};
          transfer(&flipped, piece.offset + piece.len / 2, 1, /*is_write=*/true);
          corrupt_pending = false;
        }
      }
    }
  }
  if (effective_total < total) {
    throw fault::InjectedError("injected partial read: served " +
                                   std::to_string(effective_total) + " of " +
                                   std::to_string(total) + " bytes",
                               /*permanent=*/false);
  }
}

void IoEngine::service_loop(std::size_t server) {
  Queue& q = *queues_[server];
  Scratch unit_scratch;
  for (;;) {
    Job job;
    {
      std::unique_lock lock(q.mu);
      q.cv.wait(lock, [&] { return q.stop || !q.jobs.empty(); });
      if (q.jobs.empty()) return;  // stop requested and drained
      job = std::move(q.jobs.front());
      q.jobs.pop_front();
      q.queued_bytes.fetch_sub(job.total_len(), std::memory_order_relaxed);
    }

    const std::int64_t started_ns = obs::trace_now_ns();
    const Seconds started = monotonic_now();
    const std::size_t total = job.total_len();
    std::exception_ptr error;
    try {
      service_job(server, job, unit_scratch);
    } catch (...) {
      error = std::current_exception();
    }
    note_outcome(server, error != nullptr);

    // Model the finite service rate of a real I/O server: if the local disk
    // finished faster than the modeled transfer, sleep out the remainder.
    // Straggler emulation scales the whole modeled time, so the slowdown
    // tracks the bytes actually moved (a coalesced list job on a straggler
    // pays proportionally, same as its split form would).
    if (bandwidth_ > 0.0 || latency_ > 0.0) {
      const double scale =
          server < straggler_servers_ ? straggler_slowdown_ : 1.0;
      const double modeled =
          scale * (latency_ + (bandwidth_ > 0.0
                                   ? static_cast<double>(total) / bandwidth_
                                   : 0.0));
      const double remaining = modeled - (monotonic_now() - started);
      if (remaining > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
      }
    }

    // Per-job service time (dequeue -> completion, modeled sleep included)
    // — one clock pair feeds both the histogram and the span.
    const std::int64_t served_ns = obs::trace_now_ns() - started_ns;
    service_time_.record(static_cast<double>(served_ns) * 1e-9);
    server_service_time_[server]->record(static_cast<double>(served_ns) * 1e-9);
    if (!error && total > 0) note_rate(q, static_cast<double>(served_ns) * 1e-9, total);
    if (obs::trace_enabled()) {
      obs::TraceRecorder::global().complete(
          "io", job.is_write ? "serve.write" : "serve.read",
          obs::kIoServerPidBase + static_cast<std::int32_t>(server), started_ns,
          served_ns, /*cpi=*/-1,
          error ? "failed" : std::string_view{});
    }

    if (!error) bytes_serviced_.fetch_add(total, std::memory_order_relaxed);
    job.state->complete_one(std::move(error));
  }
}

void IoEngine::note_outcome(std::size_t server, bool failed) {
  Breaker& breaker = *breakers_[server];
  if (!failed) {
    breaker.consecutive_failures.store(0, std::memory_order_relaxed);
    // A successful probe through a half-open breaker closes it: the stripe
    // directory rejoins the healthy set.
    int expected = Breaker::kHalfOpen;
    if (breaker.state.compare_exchange_strong(expected, Breaker::kClosed,
                                              std::memory_order_acq_rel)) {
      breaker_reopened_.fetch_add(1, std::memory_order_relaxed);
      if (obs::trace_enabled()) {
        obs::TraceRecorder::global().instant(
            "io", "io.breaker_reopened",
            obs::kIoServerPidBase + static_cast<std::int32_t>(server), -1,
            read_sites_[server]);
      }
    }
    return;
  }
  const std::size_t failures =
      breaker.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  // A failed probe re-opens immediately for another probe interval.
  int expected = Breaker::kHalfOpen;
  if (breaker.state.compare_exchange_strong(expected, Breaker::kOpen,
                                            std::memory_order_acq_rel)) {
    breaker.opened_at.store(monotonic_now(), std::memory_order_relaxed);
    return;
  }
  if (quarantine_threshold_ == 0 || failures < quarantine_threshold_) return;
  expected = Breaker::kClosed;
  if (!breaker.state.compare_exchange_strong(expected, Breaker::kOpen,
                                             std::memory_order_acq_rel)) {
    return;  // already open (or mid-probe) — count the trip once
  }
  breaker.opened_at.store(monotonic_now(), std::memory_order_relaxed);
  quarantined_count_.fetch_add(1, std::memory_order_relaxed);
  if (obs::trace_enabled()) {
    obs::TraceRecorder::global().instant(
        "io", "io.quarantine",
        obs::kIoServerPidBase + static_cast<std::int32_t>(server), -1,
        read_sites_[server]);
  }
}

obs::IoStats IoEngine::stats() const {
  obs::IoStats out;
  out.queue_depth = queue_depth_;
  out.service_time = service_time_;
  out.submit_latency = submit_latency_;
  out.server_service_time.reserve(server_service_time_.size());
  for (const auto& h : server_service_time_) out.server_service_time.push_back(*h);
  out.bytes_serviced = bytes_serviced_.load(std::memory_order_relaxed);
  out.corrupt_chunks = corrupt_chunks_.load(std::memory_order_relaxed);
  out.quarantined_servers = quarantined_count_.load(std::memory_order_relaxed);
  out.chunks_stolen = chunks_stolen_.load(std::memory_order_relaxed);
  out.breaker_reopened = breaker_reopened_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace pstap::pfs
