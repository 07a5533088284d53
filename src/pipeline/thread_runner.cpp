#include "pipeline/thread_runner.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <ctime>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "common/simd.hpp"
#include "common/wall_clock.hpp"
#include "mp/world.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "pipeline/collective_read.hpp"
#include "pipeline/partition.hpp"
#include "stap/beamform.hpp"
#include "stap/cube_io.hpp"
#include "stap/detection_log.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compress.hpp"
#include "stap/weights.hpp"

namespace pstap::pipeline {

namespace {

// Message streams between tasks. Per-(source, tag) FIFO ordering in mp makes
// one constant tag per stream sufficient: successive CPIs stay ordered.
// Every stream send is mp::Comm::send_stream, so at most mp::kStreamDepth
// CPIs of a stream sit unconsumed in the receiver's mailbox.
enum : int {
  kTagRaw = 1,          // read task -> Doppler (file-order slab pieces)
  kTagSpecEasy = 2,     // Doppler -> easy BF
  kTagSpecHard = 3,     // Doppler -> hard BF
  kTagTrainEasy = 4,    // Doppler -> easy WC (training gates)
  kTagTrainHard = 5,    // Doppler -> hard WC
  kTagWeightsEasy = 6,  // easy WC -> easy BF (temporal edge)
  kTagWeightsHard = 7,  // hard WC -> hard BF
  kTagBeamEasy = 8,     // easy BF -> PC (or PC+CFAR)
  kTagBeamHard = 9,     // hard BF -> PC (or PC+CFAR)
  kTagPcOut = 10,       // PC -> CFAR
};

/// Maps (task index, local node) <-> world rank: tasks own contiguous rank
/// blocks in pipeline order.
struct Assignment {
  std::vector<int> first;  // first[i] = first world rank of task i
  std::vector<int> counts;

  explicit Assignment(const PipelineSpec& spec) {
    int next = 0;
    for (const TaskSpec& t : spec.tasks) {
      first.push_back(next);
      counts.push_back(t.nodes);
      next += t.nodes;
    }
  }

  int world_rank(int task, int local) const { return first[task] + local; }

  std::pair<int, int> locate(int rank) const {
    for (std::size_t t = 0; t < first.size(); ++t) {
      if (rank < first[t] + counts[t]) return {static_cast<int>(t), rank - first[t]};
    }
    PSTAP_FAIL("rank not covered by any task");
  }
};

struct Phase {
  Seconds recv = 0, comp = 0, send = 0;
  obs::Histogram recv_hist, comp_hist, send_hist;  // per timed CPI
};

struct SharedResults {
  std::vector<Phase> avg_phase;                            // per world rank
  std::vector<std::vector<stap::Detection>> detections;    // per world rank
  std::vector<std::vector<int>> dropped;                   // per world rank
};

/// Everything a node function needs.
struct NodeCtx {
  const PipelineSpec& spec;
  const RunOptions& opt;
  const Assignment& assign;
  mp::Comm& world;
  pfs::StripedFileSystem& fs;
  int task = 0;
  int local = 0;
  SharedResults* results = nullptr;
  Supervisor* sup = nullptr;           // non-null when supervised
  ckpt::CheckpointRing* ring = nullptr;  // this rank's checkpoint ring
  BufferPool* pool = nullptr;          // this rank's payload free list

  /// Pooled payload buffer for `count` cfloat elements: after the first
  /// CPI warms the free list, acquisition is allocation-free.
  mp::Buffer payload_for(std::size_t count) const {
    return pool->acquire_elems<cfloat>(count);
  }

  /// A row array (stap::BinArray or stap::BeamArray) over a fresh pooled
  /// payload, uninitialized: the storage a node writes once per CPI and
  /// then ships as slices.
  template <typename Array>
  Array pooled(std::size_t outer, std::size_t rows, std::size_t ranges) const {
    return Array(outer, rows, ranges, payload_for(outer * rows * ranges));
  }

  const stap::RadarParams& params() const { return spec.params; }
  int nodes_of(TaskKind kind) const {
    const int i = spec.find(kind);
    return i < 0 ? 0 : spec.tasks[static_cast<std::size_t>(i)].nodes;
  }
  int rank_of(TaskKind kind, int local_id) const {
    const int i = spec.find(kind);
    PSTAP_CHECK(i >= 0, "task kind absent from spec");
    return assign.world_rank(i, local_id);
  }

  /// Record `cpi` as degraded on this rank; the runner unions the per-rank
  /// sets after the run and suppresses the CPI's detections.
  void mark_dropped(int cpi) const {
    results->dropped[static_cast<std::size_t>(world.rank())].push_back(cpi);
  }

  /// First CPI this incarnation executes: a respawned rank resumes past
  /// its checkpoint watermark; the original spawn starts at 0.
  int resume_cpi() const { return ring != nullptr ? ring->watermark() + 1 : 0; }

  /// Called at the end of every CPI loop iteration: advances the
  /// checkpoint watermark and evicts the CPI's logged messages.
  void complete_cpi(int cpi) const {
    if (ring != nullptr) ring->complete(cpi);
  }
};

/// Checkpoint-aware receive: a replayed CPI gets the payload its dead
/// predecessor consumed (byte-identical re-execution); a fresh receive is
/// logged under the *consumption* CPI so eviction can never outrun a
/// future replay (the temporal weights edge consumes CPI k-1's message at
/// CPI k — it is logged under k).
mp::Buffer recv_logged(const NodeCtx& ctx, int log_cpi, int source, int tag) {
  mp::Buffer payload;
  if (ctx.ring != nullptr &&
      ctx.ring->replay_message(log_cpi, tag, source, payload)) {
    return payload;
  }
  payload = ctx.world.recv_buffer(source, tag);
  // The ring shares the refcounted payload — logging copies a handle, not
  // the bytes.
  if (ctx.ring != nullptr) ctx.ring->record_message(log_cpi, tag, source, payload);
  return payload;
}

/// Checkpoint-aware receive viewed as cfloat elements. The returned span
/// aliases `payload`, which must stay alive while it is read.
std::span<const cfloat> recv_logged_cfloats(const NodeCtx& ctx, int log_cpi,
                                            int source, int tag,
                                            mp::Buffer& payload) {
  payload = recv_logged(ctx, log_cpi, source, tag);
  return payload.as_span<const cfloat>();
}

/// Per-CPI phase timing accumulator. Each phase section runs under an
/// obs::ScopedSpan, so one clock pair feeds the wall-clock sums, the phase
/// histograms, and (when tracing) the emitted span — they cannot disagree.
/// Spans are emitted for every CPI; the sums/histograms only count timed
/// (post-warmup) ones. An outer "cpi" span wraps each CPI's phases.
class PhaseClock {
 public:
  PhaseClock(const RunOptions& opt, Phase& out, std::string fault_site, int rank,
             Supervisor* sup = nullptr)
      : opt_(opt),
        out_(out),
        fault_site_(std::move(fault_site)),
        rank_(rank),
        sup_(sup),
        crash_site_("pipeline.rank." + std::to_string(rank)),
        crash_site_send_(crash_site_ + ".send") {}

  void start_cpi(int cpi) {
    end_cpi_span();
    if (sup_ != nullptr) {
      sup_->beat(rank_);
      // Crash sites live only here and at send start, so a dead rank's
      // per-CPI sends are all-or-nothing — the invariant CPI replay
      // depends on. Only evaluated under supervision: an unsupervised
      // crash would wedge every peer.
      fault::inject_crash(crash_site_, static_cast<std::uint64_t>(cpi));
    }
    // Stage-boundary injection site: armed delays stall this node exactly
    // where a real hiccup (page fault, scheduler preemption) would land.
    // Delay-only — stage boundaries have no retry/degradation story.
    fault::inject_delay_only(fault_site_);
    timed_ = cpi >= opt_.warmup;
    cpi_ = cpi;
    if (obs::trace_enabled()) cpi_start_ns_ = obs::trace_now_ns();
  }
  void finish() {
    end_cpi_span();
    const int timed_cpis = std::max(1, opt_.cpis - opt_.warmup);
    out_.recv = recv_ / timed_cpis;
    out_.comp = comp_ / timed_cpis;
    out_.send = send_ / timed_cpis;
  }

  // Scoped phase sections.
  template <typename F>
  void recv(F&& f) { timed_section("receive", recv_, out_.recv_hist, std::forward<F>(f)); }
  template <typename F>
  void comp(F&& f) { timed_section("compute", comp_, out_.comp_hist, std::forward<F>(f)); }
  template <typename F>
  void send(F&& f) {
    if (sup_ != nullptr) {
      fault::inject_crash(crash_site_send_, static_cast<std::uint64_t>(cpi_));
    }
    timed_section("send", send_, out_.send_hist, std::forward<F>(f));
  }

 private:
  template <typename F>
  void timed_section(const char* name, Seconds& sink, obs::Histogram& hist, F&& f) {
    obs::ScopedSpan span("pipeline", name, rank_, timed_ ? &sink : nullptr,
                         cpi_, timed_ ? &hist : nullptr);
    f();
  }

  /// Deferred emission of the enclosing per-CPI span: it closes when the
  /// next CPI starts (or at finish()), so it brackets all three phases.
  void end_cpi_span() {
    if (cpi_start_ns_ < 0) return;
    if (obs::trace_enabled()) {
      obs::TraceRecorder::global().complete(
          "pipeline", "cpi", rank_, cpi_start_ns_,
          obs::trace_now_ns() - cpi_start_ns_, cpi_);
    }
    cpi_start_ns_ = -1;
  }

  const RunOptions& opt_;
  Phase& out_;
  std::string fault_site_;
  int rank_;
  Supervisor* sup_ = nullptr;
  std::string crash_site_, crash_site_send_;
  bool timed_ = false;
  int cpi_ = -1;
  std::int64_t cpi_start_ns_ = -1;
  Seconds recv_ = 0, comp_ = 0, send_ = 0;
};

/// Copy one Doppler sender's message into rows [r_lo, r_lo + width) of
/// `dst`: `in` holds dst.bins() * dst.dof() rows of `in_stride` gates, and
/// the first `width` gates of each are copied. A weight node takes just
/// the training prefix of a full-window slice this way.
void unpack_bin_slab(stap::BinArray& dst, std::size_t r_lo, std::size_t width,
                     std::span<const cfloat> in, std::size_t in_stride) {
  PSTAP_CHECK(width <= in_stride && r_lo + width <= dst.ranges(),
              "bin slab window out of range");
  PSTAP_CHECK(in.size() == dst.bins() * dst.dof() * in_stride,
              "bin slab message size mismatch");
  const cfloat* row = in.data();
  for (std::size_t b = 0; b < dst.bins(); ++b) {
    for (std::size_t d = 0; d < dst.dof(); ++d, row += in_stride) {
      std::copy(row, row + width, dst.range_series(b, d).begin() + r_lo);
    }
  }
}

// ------------------------------------------------------------- I/O nodes --

/// Open the round-robin CPI files (file f holds CPIs f, f + n, ...).
std::vector<pfs::StripedFile> open_round_robin(const NodeCtx& ctx) {
  std::vector<pfs::StripedFile> files;
  for (std::size_t f = 0; f < ctx.opt.round_robin_files; ++f) {
    files.push_back(ctx.fs.open(stap::round_robin_name(f, ctx.opt.round_robin_files)));
  }
  return files;
}

/// Every pipeline read of a range slab [r_lo, r_hi) of the round-robin
/// files: the read task's, the embedded Doppler node's, and a Doppler
/// node's failover reads for a dead read rank. Double-buffered, so the
/// next CPI's read can be in flight while this one is consumed.
///
/// Declaration order keeps the async buffers safe: pending_ is declared
/// after bufs_, so its IoRequest destructors drain every in-flight read
/// before the buffers they write into are freed.
class SlabReader {
 public:
  SlabReader(NodeCtx& ctx, std::size_t r_lo, std::size_t r_hi)
      : ctx_(ctx), r_lo_(r_lo), r_hi_(r_hi), files_(open_round_robin(ctx)) {
    const auto& p = ctx.params();
    const std::size_t n = (r_hi - r_lo) * p.pulses * p.channels;
    bufs_[0].resize(n);
    bufs_[1].resize(n);
  }

  /// Issue `cpi`'s read ahead of its wait(): only where the file system
  /// reads asynchronously, so the read overlaps compute and send, and only
  /// for a CPI the run consumes. Synchronous-only systems (PIOFS) pay the
  /// full read inside wait() — the contrast the paper studies.
  void prefetch(int cpi) {
    if (ctx_.fs.config().supports_async && cpi < ctx_.opt.cpis) start(cpi);
  }

  /// The raw file-order slab of `cpi`, issuing the read first when nothing
  /// was prefetched. Transient failures are retried per opt.io_retry by
  /// reissuing the whole slab read (failed chunk buffers cannot be
  /// salvaged piecemeal). When the error is permanent or attempts run out
  /// the slab is zero-filled and *dropped set: graceful degradation, since
  /// a throwing node would wedge every peer in World::run.
  std::span<const cfloat> wait(int cpi, bool* dropped) {
    if (r_lo_ >= r_hi_) return {};
    const std::size_t slot = static_cast<std::size_t>(cpi & 1);
    if (issued_[slot] != cpi) start(cpi);
    auto& buf = bufs_[slot];
    const std::string what = "slab read of cpi " + std::to_string(cpi);
    bool reissue = false;
    try {
      with_retry(ctx_.opt.io_retry, what, [&] {
        if (std::exchange(reissue, true)) start(cpi);
        if (std::exception_ptr e = std::exchange(start_error_[slot], nullptr)) {
          std::rethrow_exception(e);
        }
        pfs::wait_with_timeout(pending_[slot], ctx_.opt.io_retry.attempt_timeout,
                               what);
      });
    } catch (const IoError&) {
      std::fill(buf.begin(), buf.end(), cfloat{});
      *dropped = true;
    }
    return buf;
  }

 private:
  /// Issue the read for `cpi` (async where supported). Submit-time faults
  /// (the logical pfs.file site, or a sync-mode chunk error) are captured
  /// and surfaced by wait(), so prefetch call sites stay exception-free.
  void start(int cpi) {
    if (r_lo_ >= r_hi_) return;
    const std::size_t slot = static_cast<std::size_t>(cpi & 1);
    // Observable overlap: each double-buffered issue counts here, so runs
    // can verify the next-CPI read really is in flight during compute.
    obs::Registry::global().counter("io.slab_reads_started").add(1);
    issued_[slot] = cpi;
    start_error_[slot] = nullptr;
    try {
      auto& file = files_[static_cast<std::size_t>(cpi) % files_.size()];
      pending_[slot] = stap::start_read_cpi_slab(file, ctx_.params(), r_lo_, r_hi_,
                                                 std::span<cfloat>(bufs_[slot]),
                                                 ctx_.opt.file_layout);
    } catch (const IoError&) {
      start_error_[slot] = std::current_exception();
    }
  }

  NodeCtx& ctx_;
  std::size_t r_lo_, r_hi_;
  std::vector<pfs::StripedFile> files_;
  std::array<std::vector<cfloat>, 2> bufs_;
  std::array<int, 2> issued_{-1, -1};  // the CPI each slot's read is for
  std::array<pfs::IoRequest, 2> pending_;
  std::array<std::exception_ptr, 2> start_error_;
};

void run_read_node(NodeCtx& ctx, PhaseClock& clock) {
  const auto& p = ctx.params();
  const int reads = ctx.nodes_of(TaskKind::kParallelRead);
  const int dops = ctx.nodes_of(TaskKind::kDoppler);
  const BlockPartition mine(p.ranges, static_cast<std::size_t>(reads));
  const BlockPartition theirs(p.ranges, static_cast<std::size_t>(dops));
  const std::size_t r_lo = mine.begin(static_cast<std::size_t>(ctx.local));
  const std::size_t r_hi = mine.end(static_cast<std::size_t>(ctx.local));
  SlabReader reader(ctx, r_lo, r_hi);
  const std::size_t per_range = p.pulses * p.channels;

  const int cpi0 = ctx.resume_cpi();
  reader.prefetch(cpi0);
  for (int cpi = cpi0; cpi < ctx.opt.cpis; ++cpi) {
    clock.start_cpi(cpi);
    std::span<const cfloat> raw;
    clock.recv([&] {
      bool dropped = false;
      raw = reader.wait(cpi, &dropped);
      if (dropped) ctx.mark_dropped(cpi);
    });
    reader.prefetch(cpi + 1);
    clock.send([&] {
      for (int d = 0; d < dops; ++d) {
        const std::size_t lo = std::max(r_lo, theirs.begin(static_cast<std::size_t>(d)));
        const std::size_t hi = std::min(r_hi, theirs.end(static_cast<std::size_t>(d)));
        if (lo >= hi) continue;
        // File order is range-major, so the intersection is contiguous:
        // one copy from the read buffer into a pooled payload, then a
        // zero-copy send (the read buffer is re-filled next CPI, so the
        // payload must own its bytes).
        const auto piece = raw.subspan((lo - r_lo) * per_range, (hi - lo) * per_range);
        mp::Buffer payload = ctx.payload_for(piece.size());
        std::copy(piece.begin(), piece.end(), payload.as_span<cfloat>().begin());
        ctx.world.send_stream(ctx.rank_of(TaskKind::kDoppler, d), kTagRaw,
                              std::move(payload));
      }
    });
    ctx.complete_cpi(cpi);
  }
}

// --------------------------------------------------------- Doppler nodes --

void run_doppler_node(NodeCtx& ctx, PhaseClock& clock) {
  const auto& p = ctx.params();
  const int dops = ctx.nodes_of(TaskKind::kDoppler);
  const BlockPartition mine(p.ranges, static_cast<std::size_t>(dops));
  const std::size_t r_lo = mine.begin(static_cast<std::size_t>(ctx.local));
  const std::size_t r_hi = mine.end(static_cast<std::size_t>(ctx.local));
  const bool embedded = ctx.spec.io == IoStrategy::kEmbedded;

  const auto easy_ids = p.easy_bins();
  const auto hard_ids = p.hard_bins();
  const int n_be = ctx.nodes_of(TaskKind::kBeamformEasy);
  const int n_bh = ctx.nodes_of(TaskKind::kBeamformHard);
  const int n_we = ctx.nodes_of(TaskKind::kWeightsEasy);
  const int n_wh = ctx.nodes_of(TaskKind::kWeightsHard);
  const BlockPartition part_be(easy_ids.size(), static_cast<std::size_t>(n_be));
  const BlockPartition part_bh(hard_ids.size(), static_cast<std::size_t>(n_bh));
  const BlockPartition part_we(easy_ids.size(), static_cast<std::size_t>(n_we));
  const BlockPartition part_wh(hard_ids.size(), static_cast<std::size_t>(n_wh));

  stap::DopplerFilter filter(p);
  std::optional<SlabReader> reader;
  std::vector<cfloat> raw_recv;
  const bool collective = embedded && ctx.opt.collective_io;
  std::optional<mp::Comm> doppler_group;
  std::vector<pfs::StripedFile> collective_files;
  if (collective) {
    std::vector<int> doppler_ranks;
    for (int d = 0; d < dops; ++d) {
      doppler_ranks.push_back(ctx.rank_of(TaskKind::kDoppler, d));
    }
    doppler_group = ctx.world.subgroup(doppler_ranks);
    collective_files = open_round_robin(ctx);
  } else if (embedded) {
    reader.emplace(ctx, r_lo, r_hi);
  } else {
    raw_recv.resize((r_hi - r_lo) * p.pulses * p.channels);
  }
  const int reads = embedded ? 0 : ctx.nodes_of(TaskKind::kParallelRead);
  const BlockPartition part_read(p.ranges, std::max<std::size_t>(1, reads));
  const std::size_t per_range = p.pulses * p.channels;

  // I/O-task failover: once the supervisor abandons a crashed read rank,
  // this node promotes to embedded reads of that rank's slab pieces, with
  // one reader per dead source — made on first use, since most runs never
  // need one.
  std::vector<std::optional<SlabReader>> failover(static_cast<std::size_t>(reads));

  // Receive one raw slab piece from read rank `s`, surviving its death:
  // replay from the checkpoint first; otherwise poll the mailbox against
  // the supervisor's failover flag. All of a dead rank's sends are visible
  // before failed() turns true, so the probe-after-failed re-check cannot
  // strand a delivered message (which FIFO would hand to the wrong CPI).
  auto recv_piece = [&](int cpi, int s, std::size_t lo, std::size_t hi,
                        std::span<cfloat> piece) {
    const int src = ctx.rank_of(TaskKind::kParallelRead, s);
    if (ctx.sup == nullptr) {
      ctx.world.recv_into<cfloat>(src, kTagRaw, piece);
      return;
    }
    mp::Buffer payload;
    if (ctx.ring->replay_message(cpi, kTagRaw, src, payload)) {
      mp::unpack<cfloat>(payload.bytes(), piece);
      return;
    }
    for (;;) {
      if (ctx.world.probe(src, kTagRaw)) {
        payload = ctx.world.recv_buffer(src, kTagRaw);
        mp::unpack<cfloat>(payload.bytes(), piece);
        break;
      }
      if (ctx.sup->failed(src) && !ctx.world.probe(src, kTagRaw)) {
        // Separate-I/O mode requires range-major files, so rows [lo, hi)
        // are exactly the contiguous piece the dead rank would have sent.
        auto& self = failover[static_cast<std::size_t>(s)];
        if (!self) self.emplace(ctx, lo, hi);
        bool dropped = false;
        const auto raw = self->wait(cpi, &dropped);
        if (dropped) ctx.mark_dropped(cpi);
        ctx.sup->note_promoted_read();
        std::copy(raw.begin(), raw.end(), piece.begin());
        payload = ctx.payload_for(piece.size());
        std::copy(raw.begin(), raw.end(), payload.as_span<cfloat>().begin());
        break;
      }
      if (ctx.sup->aborted()) throw mp::MailboxClosed("supervised run aborting");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Log under the consumption CPI either way: a replay of this CPI must
    // see the same bytes whether they came off the wire or the disk. The
    // ring shares the payload handle — no copy.
    ctx.ring->record_message(cpi, kTagRaw, src, std::move(payload));
  };

  // The embedded and separate-I/O paths filter the raw file-order slab in
  // place (`raw`: the reader's buffer or raw_recv); only the collective
  // read produces a cube. The output is written into one pooled payload
  // per CPI (easy then hard) and shipped as slices of it, so the send
  // copies nothing, and the filter never writes into bytes it shipped.
  stap::DataCube cube;  // collective reads only
  std::span<const cfloat> raw = raw_recv;
  stap::DopplerOutput out;
  const std::size_t width = r_hi - r_lo;
  const std::size_t n_easy = easy_ids.size() * p.easy_dof() * width;
  const std::size_t n_hard = hard_ids.size() * p.hard_dof() * width;
  const int cpi0 = ctx.resume_cpi();
  if (reader) reader->prefetch(cpi0);
  for (int cpi = cpi0; cpi < ctx.opt.cpis; ++cpi) {
    clock.start_cpi(cpi);
    if (collective) {
      clock.recv([&] {
        auto& file =
            collective_files[static_cast<std::size_t>(cpi) % collective_files.size()];
        bool degraded = false;
        cube = collective_read_slab(*doppler_group, file, p, /*tag_base=*/900,
                                    ctx.opt.io_retry, &degraded);
        if (degraded) ctx.mark_dropped(cpi);
      });
    } else if (embedded) {
      clock.recv([&] {
        bool dropped = false;
        raw = reader->wait(cpi, &dropped);
        if (dropped) ctx.mark_dropped(cpi);
      });
      // Fills the other slot: `raw` is untouched until prefetch(cpi + 2).
      reader->prefetch(cpi + 1);
    } else {
      clock.recv([&] {
        for (int s = 0; s < reads; ++s) {
          const std::size_t lo =
              std::max(r_lo, part_read.begin(static_cast<std::size_t>(s)));
          const std::size_t hi =
              std::min(r_hi, part_read.end(static_cast<std::size_t>(s)));
          if (lo >= hi) continue;
          auto piece = std::span<cfloat>(raw_recv)
                           .subspan((lo - r_lo) * per_range, (hi - lo) * per_range);
          recv_piece(cpi, s, lo, hi, piece);
        }
      });
    }

    clock.comp([&] {
      const mp::Buffer storage = ctx.payload_for(n_easy + n_hard);
      const std::size_t split = n_easy * sizeof(cfloat);
      out.easy = stap::BinArray(easy_ids.size(), p.easy_dof(), width,
                                storage.slice(0, split));
      out.hard = stap::BinArray(hard_ids.size(), p.hard_dof(), width,
                                storage.slice(split, storage.size() - split));
      if (collective) {
        filter.process_into(cube, out);
      } else {
        // Separate I/O runs on range-major files only, so file_layout
        // describes raw_recv's pieces as well as the reader's slab.
        filter.process_into(raw, r_hi - r_lo, ctx.opt.file_layout, out);
      }
    });

    clock.send([&] {
      // A receiver's bins [b_lo, b_hi) are one contiguous run of the
      // [bin][dof][range] output, so each message is a slice of it: one
      // ship path for any node count, and no byte copied. Weight nodes
      // read only the training gates, so only Doppler nodes whose window
      // starts inside them (`limit`) ship to them.
      auto ship = [&](const stap::BinArray& arr, const BlockPartition& part,
                      TaskKind dest_kind, int dest_nodes, int tag, std::size_t limit) {
        if (r_lo >= limit) return;
        for (int n = 0; n < dest_nodes; ++n) {
          const std::size_t b_lo = part.begin(static_cast<std::size_t>(n));
          const std::size_t b_hi = part.end(static_cast<std::size_t>(n));
          if (b_lo >= b_hi) continue;
          ctx.world.send_stream(ctx.rank_of(dest_kind, n), tag, arr.slice(b_lo, b_hi));
        }
      };
      ship(out.easy, part_be, TaskKind::kBeamformEasy, n_be, kTagSpecEasy, p.ranges);
      ship(out.hard, part_bh, TaskKind::kBeamformHard, n_bh, kTagSpecHard, p.ranges);
      ship(out.easy, part_we, TaskKind::kWeightsEasy, n_we, kTagTrainEasy,
           p.training_ranges);
      ship(out.hard, part_wh, TaskKind::kWeightsHard, n_wh, kTagTrainHard,
           p.training_ranges);
    });
    ctx.complete_cpi(cpi);
  }
}

// ---------------------------------------------------------- weight nodes --

void run_weights_node(NodeCtx& ctx, PhaseClock& clock, bool hard) {
  const auto& p = ctx.params();
  const auto ids = hard ? p.hard_bins() : p.easy_bins();
  const std::size_t dof = hard ? p.hard_dof() : p.easy_dof();
  const TaskKind self = hard ? TaskKind::kWeightsHard : TaskKind::kWeightsEasy;
  const TaskKind bf_kind = hard ? TaskKind::kBeamformHard : TaskKind::kBeamformEasy;
  const int train_tag = hard ? kTagTrainHard : kTagTrainEasy;
  const int weight_tag = hard ? kTagWeightsHard : kTagWeightsEasy;

  const int n_self = ctx.nodes_of(self);
  const int n_bf = ctx.nodes_of(bf_kind);
  const int dops = ctx.nodes_of(TaskKind::kDoppler);
  const BlockPartition mine(ids.size(), static_cast<std::size_t>(n_self));
  const BlockPartition bf_part(ids.size(), static_cast<std::size_t>(n_bf));
  const std::size_t b_lo = mine.begin(static_cast<std::size_t>(ctx.local));
  const std::size_t b_hi = mine.end(static_cast<std::size_t>(ctx.local));
  const BlockPartition ranges(p.ranges, static_cast<std::size_t>(dops));

  std::vector<std::size_t> my_ids(ids.begin() + b_lo, ids.begin() + b_hi);
  stap::WeightComputer wc(p, my_ids, dof);
  // One Doppler node covers every gate: its full-window slice is adopted
  // as the training array (compute reads its training prefix, as in
  // StapChain). Several: their training gates are assembled here.
  const bool adopt = ranges.end(0) == p.ranges;
  stap::BinArray training =
      adopt ? stap::BinArray() : stap::BinArray(my_ids.size(), dof, p.training_ranges);

  for (int cpi = ctx.resume_cpi(); cpi < ctx.opt.cpis; ++cpi) {
    clock.start_cpi(cpi);
    if (my_ids.empty()) {  // more nodes than bins: idle node
      ctx.complete_cpi(cpi);
      continue;
    }
    clock.recv([&] {
      for (int d = 0; d < dops; ++d) {
        const std::size_t r_lo = ranges.begin(static_cast<std::size_t>(d));
        const std::size_t r_hi =
            std::min(ranges.end(static_cast<std::size_t>(d)), p.training_ranges);
        if (r_lo >= r_hi) continue;
        mp::Buffer payload =
            recv_logged(ctx, cpi, ctx.rank_of(TaskKind::kDoppler, d), train_tag);
        if (adopt) {
          training = stap::BinArray(my_ids.size(), dof, p.ranges, std::move(payload));
        } else {
          unpack_bin_slab(training, r_lo, r_hi - r_lo, payload.as_span<const cfloat>(),
                          ranges.size(static_cast<std::size_t>(d)));
        }
      }
    });

    stap::WeightSet ws;
    clock.comp([&] { ws = wc.compute(training); });

    clock.send([&] {
      // Forward each bin's weights to the BF node owning it (temporal edge:
      // consumed at cpi+1). Group messages per destination, packed straight
      // into pooled payloads.
      for (int n = 0; n < n_bf; ++n) {
        const std::size_t lo = std::max(b_lo, bf_part.begin(static_cast<std::size_t>(n)));
        const std::size_t hi = std::min(b_hi, bf_part.end(static_cast<std::size_t>(n)));
        if (lo >= hi) continue;
        mp::Buffer payload = ctx.payload_for((hi - lo) * p.beams * dof);
        const auto buf = payload.as_span<cfloat>();
        std::size_t idx = 0;
        for (std::size_t b = lo; b < hi; ++b) {
          for (std::size_t beam = 0; beam < p.beams; ++beam) {
            const auto w = ws.at(b - b_lo, beam);
            std::copy(w.begin(), w.end(), buf.begin() + idx);
            idx += dof;
          }
        }
        ctx.world.send_stream(ctx.rank_of(bf_kind, n), weight_tag, std::move(payload));
      }
    });
    ctx.complete_cpi(cpi);
  }
}

// ------------------------------------------------------- beamform nodes --

/// Route each row block — the (beams x ranges) rows of absolute bin
/// bins[b] — to the `dest_kind` node owning that bin under a block
/// partition of the full bin space. `bins` ascends, so each node's bins
/// are one contiguous run of rows: its message is a slice of `rows`, no
/// byte copied. The caller must not write `rows` again.
void ship_rows(const NodeCtx& ctx, const stap::BeamArray& rows,
               const std::vector<std::size_t>& bins, TaskKind dest_kind, int tag) {
  const BlockPartition part(ctx.params().doppler_bins(),
                            static_cast<std::size_t>(ctx.nodes_of(dest_kind)));
  for (std::size_t lo = 0; lo < bins.size();) {
    const std::size_t owner = part.owner(bins[lo]);
    std::size_t hi = lo + 1;
    while (hi < bins.size() && part.owner(bins[hi]) == owner) ++hi;
    ctx.world.send_stream(ctx.rank_of(dest_kind, static_cast<int>(owner)), tag,
                          rows.slice(lo, hi));
    lo = hi;
  }
}

void run_beamform_node(NodeCtx& ctx, PhaseClock& clock, bool hard) {
  const auto& p = ctx.params();
  const auto ids = hard ? p.hard_bins() : p.easy_bins();
  const std::size_t dof = hard ? p.hard_dof() : p.easy_dof();
  const TaskKind self = hard ? TaskKind::kBeamformHard : TaskKind::kBeamformEasy;
  const TaskKind wc_kind = hard ? TaskKind::kWeightsHard : TaskKind::kWeightsEasy;
  const int spec_tag = hard ? kTagSpecHard : kTagSpecEasy;
  const int weight_tag = hard ? kTagWeightsHard : kTagWeightsEasy;
  const int beam_tag = hard ? kTagBeamHard : kTagBeamEasy;

  const int n_self = ctx.nodes_of(self);
  const int n_wc = ctx.nodes_of(wc_kind);
  const int dops = ctx.nodes_of(TaskKind::kDoppler);
  const TaskKind pc_kind = ctx.spec.combined_pc_cfar ? TaskKind::kPulseCompressionCfar
                                                     : TaskKind::kPulseCompression;

  const BlockPartition mine(ids.size(), static_cast<std::size_t>(n_self));
  const BlockPartition wc_part(ids.size(), static_cast<std::size_t>(n_wc));
  const BlockPartition ranges(p.ranges, static_cast<std::size_t>(dops));
  const std::size_t b_lo = mine.begin(static_cast<std::size_t>(ctx.local));
  const std::size_t b_hi = mine.end(static_cast<std::size_t>(ctx.local));
  std::vector<std::size_t> my_ids(ids.begin() + b_lo, ids.begin() + b_hi);

  stap::Beamformer bf(p);
  stap::WeightComputer wc(p, my_ids, dof);  // steering oracle for CPI 0
  // Beamform is the pipeline's only cross-CPI-stateful node, but the state
  // (`current`) is fully overwritten by the weight messages consumed each
  // CPI >= 1 — so a respawn rebuilds it from the replayed messages alone
  // and needs no separate snapshot.
  stap::WeightSet current = wc.conventional();
  // One Doppler node covers every gate: its slice is adopted as the
  // spectra. Several: their range windows are assembled here.
  const bool adopt = ranges.end(0) == p.ranges;
  stap::BinArray spectra =
      adopt ? stap::BinArray() : stap::BinArray(my_ids.size(), dof, p.ranges);

  for (int cpi = ctx.resume_cpi(); cpi < ctx.opt.cpis; ++cpi) {
    clock.start_cpi(cpi);
    if (my_ids.empty()) {
      ctx.complete_cpi(cpi);
      continue;
    }
    clock.recv([&] {
      // Spectra of the current CPI from every Doppler node.
      for (int d = 0; d < dops; ++d) {
        const std::size_t r_lo = ranges.begin(static_cast<std::size_t>(d));
        const std::size_t r_hi = ranges.end(static_cast<std::size_t>(d));
        if (r_lo >= r_hi) continue;
        mp::Buffer payload =
            recv_logged(ctx, cpi, ctx.rank_of(TaskKind::kDoppler, d), spec_tag);
        if (adopt) {
          spectra = stap::BinArray(my_ids.size(), dof, p.ranges, std::move(payload));
        } else {
          unpack_bin_slab(spectra, r_lo, r_hi - r_lo, payload.as_span<const cfloat>(),
                          r_hi - r_lo);
        }
      }
      // Weights computed from the previous CPI (none at cpi 0). The
      // temporal edge: the message was *sent* at cpi-1 but is logged under
      // this consumption cpi, so eviction cannot outrun a replay.
      if (cpi >= 1) {
        for (int n = 0; n < n_wc; ++n) {
          const std::size_t lo =
              std::max(b_lo, wc_part.begin(static_cast<std::size_t>(n)));
          const std::size_t hi = std::min(b_hi, wc_part.end(static_cast<std::size_t>(n)));
          if (lo >= hi) continue;
          mp::Buffer payload;
          const auto msg = recv_logged_cfloats(ctx, cpi, ctx.rank_of(wc_kind, n),
                                               weight_tag, payload);
          PSTAP_CHECK(msg.size() == (hi - lo) * p.beams * dof,
                      "weight message size mismatch");
          std::size_t idx = 0;
          for (std::size_t b = lo; b < hi; ++b) {
            for (std::size_t beam = 0; beam < p.beams; ++beam) {
              auto w = current.at(b - b_lo, beam);
              for (std::size_t x = 0; x < dof; ++x) w[x] = msg[idx++];
            }
          }
        }
      }
    });

    auto out = ctx.pooled<stap::BeamArray>(my_ids.size(), p.beams, p.ranges);
    clock.comp([&] { bf.apply_into(spectra, current, out); });

    clock.send([&] { ship_rows(ctx, out, my_ids, pc_kind, beam_tag); });
    ctx.complete_cpi(cpi);
  }
}

// --------------------------------------------- PC / CFAR / combined nodes --

/// The absolute bins task-local node `local` owns under `part`, split by
/// easy/hard origin (which BF task ships them).
struct RowPlan {
  std::vector<std::size_t> bins;       // absolute, ascending
  std::vector<std::size_t> easy_bins;  // subset that comes from easy BF
  std::vector<std::size_t> hard_bins;  // subset from hard BF
};

RowPlan make_row_plan(const stap::RadarParams& p, const BlockPartition& part,
                      int local) {
  RowPlan plan;
  const std::size_t lo = part.begin(static_cast<std::size_t>(local));
  const std::size_t hi = part.end(static_cast<std::size_t>(local));
  for (std::size_t b = lo; b < hi; ++b) {
    plan.bins.push_back(b);
    (p.is_hard_bin(b) ? plan.hard_bins : plan.easy_bins).push_back(b);
  }
  return plan;
}

/// Static routing of (bins x beams x ranges) rows from a sender task to
/// this node: per sender, the receiver-local slots of the bins it ships, in
/// the sender's pack order. Computed once — the per-CPI receive loop then
/// does no set intersection and no allocation.
struct RowRoute {
  TaskKind sender_kind;
  int tag;
  std::vector<std::vector<std::size_t>> slots_per_sender;
};

RowRoute make_row_route(const NodeCtx& ctx, const RowPlan& plan,
                        TaskKind sender_kind, int tag) {
  const auto& p = ctx.params();
  const int senders = ctx.nodes_of(sender_kind);
  const auto easy_ids = p.easy_bins();
  const auto hard_ids = p.hard_bins();

  auto local_index_of = [&](const std::vector<std::size_t>& ids, std::size_t bin) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), bin);
    PSTAP_CHECK(it != ids.end() && *it == bin, "bin not in id list");
    return static_cast<std::size_t>(it - ids.begin());
  };
  auto bin_slot = [&](std::size_t bin) {
    const auto it = std::lower_bound(plan.bins.begin(), plan.bins.end(), bin);
    return static_cast<std::size_t>(it - plan.bins.begin());
  };

  const bool bf_easy = sender_kind == TaskKind::kBeamformEasy;
  const bool bf_hard = sender_kind == TaskKind::kBeamformHard;
  RowRoute route{sender_kind, tag, {}};
  route.slots_per_sender.resize(static_cast<std::size_t>(senders));
  for (int s = 0; s < senders; ++s) {
    auto& slots = route.slots_per_sender[static_cast<std::size_t>(s)];
    if (bf_easy || bf_hard) {
      // A BF sender partitions its own (easy or hard) bin list.
      const auto& ids = bf_easy ? easy_ids : hard_ids;
      const auto& my = bf_easy ? plan.easy_bins : plan.hard_bins;
      const BlockPartition sp(ids.size(), static_cast<std::size_t>(senders));
      for (const std::size_t bin : my) {
        if (sp.owner(local_index_of(ids, bin)) == static_cast<std::size_t>(s)) {
          slots.push_back(bin_slot(bin));
        }
      }
    } else {
      // Sender partitions the full bin space (PC -> CFAR).
      const BlockPartition sp(p.doppler_bins(), static_cast<std::size_t>(senders));
      for (const std::size_t bin : plan.bins) {
        if (sp.owner(bin) == static_cast<std::size_t>(s)) slots.push_back(bin_slot(bin));
      }
    }
  }
  return route;
}

/// Receive this node's rows along a precomputed route; each message is read
/// in place from the shared payload (no intermediate vector).
void receive_rows(NodeCtx& ctx, int cpi, stap::BeamArray& rows,
                  const RowRoute& route) {
  const auto& p = ctx.params();
  for (std::size_t s = 0; s < route.slots_per_sender.size(); ++s) {
    const auto& slots = route.slots_per_sender[s];
    if (slots.empty()) continue;
    mp::Buffer payload;
    const auto msg = recv_logged_cfloats(
        ctx, cpi, ctx.rank_of(route.sender_kind, static_cast<int>(s)), route.tag,
        payload);
    PSTAP_CHECK(msg.size() == slots.size() * p.beams * p.ranges,
                "row message size mismatch");
    std::size_t idx = 0;
    for (const std::size_t slot : slots) {
      for (std::size_t beam = 0; beam < p.beams; ++beam) {
        auto row = rows.range_series(slot, beam);
        std::copy(msg.begin() + idx, msg.begin() + idx + p.ranges, row.begin());
        idx += p.ranges;
      }
    }
  }
}

/// The tail row stage: pulse compression (kPulseCompression) shipping its
/// rows to CFAR, CFAR detection (kCfar), or both in one task
/// (kPulseCompressionCfar, the paper's task combination).
void run_row_node(NodeCtx& ctx, PhaseClock& clock, TaskKind kind) {
  const auto& p = ctx.params();
  const BlockPartition mine(p.doppler_bins(),
                            static_cast<std::size_t>(ctx.nodes_of(kind)));
  const RowPlan plan = make_row_plan(p, mine, ctx.local);
  std::vector<RowRoute> routes;
  std::optional<stap::PulseCompressor> pc;
  std::optional<stap::CfarDetector> cfar;
  if (kind == TaskKind::kCfar) {
    routes.push_back(make_row_route(ctx, plan, TaskKind::kPulseCompression, kTagPcOut));
  } else {
    routes.push_back(make_row_route(ctx, plan, TaskKind::kBeamformEasy, kTagBeamEasy));
    routes.push_back(make_row_route(ctx, plan, TaskKind::kBeamformHard, kTagBeamHard));
    pc.emplace(p);
  }
  if (kind != TaskKind::kPulseCompression) cfar.emplace(p);
  auto& sink = ctx.results->detections[static_cast<std::size_t>(ctx.world.rank())];

  for (int cpi = ctx.resume_cpi(); cpi < ctx.opt.cpis; ++cpi) {
    clock.start_cpi(cpi);
    if (plan.bins.empty()) {
      ctx.complete_cpi(cpi);
      continue;
    }
    // Fresh pooled rows every CPI: a PC node ships slices of them to CFAR.
    // The receive writes every row, so the storage needs no zero-fill.
    auto rows = ctx.pooled<stap::BeamArray>(plan.bins.size(), p.beams, p.ranges);
    clock.recv([&] {
      for (const RowRoute& route : routes) receive_rows(ctx, cpi, rows, route);
    });
    clock.comp([&] {
      if (pc) pc->compress(rows);
      if (!cfar) return;
      auto dets = cfar->detect(rows, plan.bins);
      for (auto& d : dets) d.cpi = static_cast<std::uint64_t>(cpi);
      // Replay idempotence: a predecessor that died between comp and the
      // send-start crash site already appended this CPI's detections.
      std::erase_if(sink, [&](const stap::Detection& d) {
        return d.cpi == static_cast<std::uint64_t>(cpi);
      });
      sink.insert(sink.end(), dets.begin(), dets.end());
    });
    clock.send([&] {
      if (!cfar) ship_rows(ctx, rows, plan.bins, TaskKind::kCfar, kTagPcOut);
    });
    ctx.complete_cpi(cpi);
  }
}

}  // namespace

// ----------------------------------------------------------- ThreadRunner --

ThreadRunner::ThreadRunner(PipelineSpec spec, RunOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  spec_.validate();
  PSTAP_REQUIRE(options_.cpis >= 1, "need at least one CPI");
  PSTAP_REQUIRE(options_.warmup >= 0 && options_.warmup < options_.cpis,
                "warmup must leave at least one timed CPI");
  PSTAP_REQUIRE(!options_.fs_root.empty(), "fs_root must be set");
  PSTAP_REQUIRE(options_.round_robin_files >= 1, "need at least one data file");
  PSTAP_REQUIRE(options_.file_layout == stap::FileLayout::kRangeMajor ||
                    spec_.io == IoStrategy::kEmbedded,
                "pulse-major files are supported with embedded I/O only");
  PSTAP_REQUIRE(!options_.collective_io ||
                    (spec_.io == IoStrategy::kEmbedded &&
                     options_.file_layout == stap::FileLayout::kPulseMajor),
                "collective I/O applies to embedded reads of pulse-major files");
  PSTAP_REQUIRE(!options_.supervise.enabled || !options_.collective_io,
                "supervised runs do not support collective I/O "
                "(collectives have no checkpoint-replay path)");
  PSTAP_REQUIRE(options_.io_retry.max_attempts >= 1,
                "io_retry.max_attempts must be >= 1");
  PSTAP_REQUIRE(options_.io_retry.initial_backoff >= 0,
                "io_retry.initial_backoff must be >= 0");
  PSTAP_REQUIRE(options_.io_retry.attempt_timeout >= 0,
                "io_retry.attempt_timeout must be >= 0");
}

RunResult ThreadRunner::run() {
  const auto& p = spec_.params;

  // Tracing session for this run (trace_path, else PSTAP_TRACE, else off).
  // Opened before the file system so I/O-server activity is captured too.
  obs::TraceSession trace_session(options_.trace_path);
  // RunReport session (report_path, else PSTAP_REPORT, else off). Passive
  // when a bench main holds the outer session; this run then contributes
  // its report to the outer document instead of writing its own.
  obs::ReportSession report_session(options_.report_path);
  const Seconds wall_start = monotonic_now();
  const std::clock_t cpu_start = std::clock();
  const std::uint64_t retries_before = io_retry_counter().value();

  // Install the fault plan (if any) for the whole run: radar-side writes,
  // pipeline reads, message passing, and stage boundaries all see it.
  std::optional<fault::FaultScope> fault_scope;
  if (options_.fault_plan) fault_scope.emplace(options_.fault_plan);

  // --- The radar side: write the round-robin CPI files. ---
  // "setup" spans split this part of setup time into synthesis and write.
  pfs::StripedFileSystem fs(options_.fs_root, options_.fs_config);
  {
    stap::SceneGenerator gen(p, options_.scene, options_.seed);
    for (std::size_t f = 0; f < options_.round_robin_files; ++f) {
      const auto cpi = static_cast<std::int64_t>(f);
      const stap::DataCube cube = [&] {
        obs::ScopedSpan span("setup", "scene", obs::kLibraryPid, nullptr, cpi);
        return gen.generate(f);
      }();
      obs::ScopedSpan write("setup", "write", obs::kLibraryPid, nullptr, cpi);
      stap::write_cpi(fs, stap::round_robin_name(f, options_.round_robin_files),
                      cube, options_.file_layout);
    }
  }

  const Assignment assign(spec_);
  const int total = spec_.total_nodes();
  // Label each rank's trace stream "rank N <task>.<local>" up front.
  for (int r = 0; r < total; ++r) {
    const auto [task, local] = assign.locate(r);
    obs::TraceRecorder::global().set_process_name(
        r, "rank " + std::to_string(r) + " " +
               task_name(spec_.tasks[static_cast<std::size_t>(task)].kind) + "." +
               std::to_string(local));
  }
  SharedResults results;
  results.avg_phase.resize(static_cast<std::size_t>(total));
  results.detections.resize(static_cast<std::size_t>(total));
  results.dropped.resize(static_cast<std::size_t>(total));

  // Per-rank payload free lists. Declared before the world and supervisor so
  // every Buffer they still hold (undrained mailboxes, checkpoint rings) is
  // released before its pool dies. deque: BufferPool is not movable.
  std::deque<mp::BufferPool> pools(static_cast<std::size_t>(total));

  mp::World world(total, options_.world);
  std::optional<Supervisor> supervisor;
  if (options_.supervise.enabled) {
    supervisor.emplace(world, total, options_.supervise);
    // The separate I/O task fails over (Doppler promotes to embedded
    // reads); every other task respawns and replays.
    const int read_task = spec_.find(TaskKind::kParallelRead);
    if (read_task >= 0) {
      std::vector<int> io_ranks;
      for (int n = 0; n < spec_.tasks[static_cast<std::size_t>(read_task)].nodes; ++n) {
        io_ranks.push_back(assign.world_rank(read_task, n));
      }
      supervisor->set_failover_ranks(io_ranks);
    }
  }

  auto node_main = [&](mp::Comm& comm) {
    const auto [task, local] = assign.locate(comm.rank());
    NodeCtx ctx{spec_, options_, assign, comm, fs, task, local, &results};
    ctx.pool = &pools[static_cast<std::size_t>(comm.rank())];
    if (supervisor) {
      ctx.sup = &*supervisor;
      ctx.ring = &supervisor->ring(comm.rank());
    }
    const TaskKind kind = spec_.tasks[static_cast<std::size_t>(task)].kind;
    PhaseClock clock(options_,
                     results.avg_phase[static_cast<std::size_t>(comm.rank())],
                     std::string("pipeline.stage.") + task_name(kind), comm.rank(),
                     ctx.sup);
    switch (kind) {
      case TaskKind::kParallelRead: run_read_node(ctx, clock); break;
      case TaskKind::kDoppler: run_doppler_node(ctx, clock); break;
      case TaskKind::kWeightsEasy: run_weights_node(ctx, clock, false); break;
      case TaskKind::kWeightsHard: run_weights_node(ctx, clock, true); break;
      case TaskKind::kBeamformEasy: run_beamform_node(ctx, clock, false); break;
      case TaskKind::kBeamformHard: run_beamform_node(ctx, clock, true); break;
      case TaskKind::kPulseCompression:
      case TaskKind::kCfar:
      case TaskKind::kPulseCompressionCfar: run_row_node(ctx, clock, kind); break;
    }
    clock.finish();
  };

  if (supervisor) {
    // Respawns must rebuild a Comm without World::run, so the body makes
    // its own (the original spawn's comm argument is equivalent; both are
    // world-spanning context-0 communicators).
    supervisor->set_rank_body([&](int rank) {
      mp::Comm comm = world.make_comm(rank);
      node_main(comm);
    });
    world.run([&](mp::Comm& comm) { supervisor->run_rank(comm.rank()); });
    supervisor->finish();  // joins replaying respawns; throws on abort
  } else {
    world.run(node_main);
  }

  // --- Aggregate: per task, report the slowest node's phases. ---
  RunResult result;
  result.timed_cpis = options_.cpis - options_.warmup;
  for (std::size_t t = 0; t < spec_.tasks.size(); ++t) {
    TaskTiming timing;
    timing.kind = spec_.tasks[t].kind;
    timing.nodes = spec_.tasks[t].nodes;
    Seconds worst = -1;
    for (int n = 0; n < spec_.tasks[t].nodes; ++n) {
      const Phase& ph =
          results.avg_phase[static_cast<std::size_t>(assign.world_rank(
              static_cast<int>(t), n))];
      // Scalars: the slowest node's averages. Histograms: merged over every
      // node, so the distribution keeps the whole task's per-CPI spread.
      timing.receive_hist.merge(ph.recv_hist);
      timing.compute_hist.merge(ph.comp_hist);
      timing.send_hist.merge(ph.send_hist);
      const Seconds tot = ph.recv + ph.comp + ph.send;
      if (tot > worst) {
        worst = tot;
        timing.receive = ph.recv;
        timing.compute = ph.comp;
        timing.send = ph.send;
      }
    }
    result.metrics.tasks.push_back(timing);
  }
  // I/O-side distributions and counters for this run (the engine and the
  // fault plan both live exactly one run, so these are per-run snapshots).
  result.metrics.io = fs.engine().stats();
  result.metrics.io.retries = io_retry_counter().value() - retries_before;
  if (supervisor) result.metrics.recovery = supervisor->stats();
  if (options_.fault_plan) {
    const fault::FaultPlan& plan = *options_.fault_plan;
    result.metrics.io.injected_delays = plan.injected_delays();
    result.metrics.io.injected_errors = plan.injected_errors();
    result.metrics.io.injected_partials = plan.injected_partials();
    result.metrics.io.injected_corruptions = plan.injected_corruptions();
    result.metrics.recovery.injected_crashes = plan.injected_crashes();
  }
  // Union the per-rank dropped-CPI sets and suppress those CPIs'
  // detections: a degraded read zero-fills only one node's slab, so the
  // rest of the CPI's detections are real but the product is incomplete —
  // report the CPI as dropped rather than silently thinner. CPI k's
  // zero-filled training gates also set the weights the beamformers apply
  // to CPI k + 1 (the temporal edge), so k + 1 is dropped with it.
  for (const auto& per_rank : results.dropped) {
    for (const int cpi : per_rank) {
      result.dropped_cpis.push_back(cpi);
      if (cpi + 1 < options_.cpis) result.dropped_cpis.push_back(cpi + 1);
    }
  }
  std::sort(result.dropped_cpis.begin(), result.dropped_cpis.end());
  result.dropped_cpis.erase(
      std::unique(result.dropped_cpis.begin(), result.dropped_cpis.end()),
      result.dropped_cpis.end());
  result.metrics.dropped_cpis = static_cast<int>(result.dropped_cpis.size());

  for (auto& per_rank : results.detections) {
    result.detections.insert(result.detections.end(), per_rank.begin(),
                             per_rank.end());
  }
  if (!result.dropped_cpis.empty()) {
    const auto& dropped = result.dropped_cpis;
    std::erase_if(result.detections, [&](const stap::Detection& d) {
      return std::binary_search(dropped.begin(), dropped.end(),
                                static_cast<int>(d.cpi));
    });
  }
  std::sort(result.detections.begin(), result.detections.end(),
            [](const stap::Detection& a, const stap::Detection& b) {
              return std::tie(a.cpi, a.bin, a.beam, a.range) <
                     std::tie(b.cpi, b.bin, b.beam, b.range);
            });

  // Output side: persist the fused reports as one log block per CPI.
  if (!options_.detection_log.empty()) {
    stap::DetectionLogWriter log(fs, options_.detection_log);
    auto it = result.detections.begin();
    for (int cpi = 0; cpi < options_.cpis; ++cpi) {
      auto end = it;
      while (end != result.detections.end() &&
             end->cpi == static_cast<std::uint64_t>(cpi)) {
        ++end;
      }
      std::span<const stap::Detection> block;
      if (it != end) block = {&*it, static_cast<std::size_t>(end - it)};
      log.append(static_cast<std::uint64_t>(cpi), block);
      it = end;
    }
  }

  // --- Structured RunReport (report_session, or an outer one, exports). ---
  if (obs::report_enabled()) {
    obs::RunReport report;
    report.kind = "functional";
    const char* io_name =
        spec_.io == IoStrategy::kEmbedded ? "embedded" : "separate";
    report.label = options_.report_label.empty()
                       ? std::string("functional ") + io_name +
                             (spec_.combined_pc_cfar ? " combined" : "") +
                             " n=" + std::to_string(total)
                       : options_.report_label;
    report.geometry = {p.channels, p.pulses,        p.ranges,
                       p.beams,    p.doppler_bins(), p.cube_bytes()};
    report.config.io_strategy = io_name;
    report.config.combined_pc_cfar = spec_.combined_pc_cfar;
    report.config.stripe_factor = options_.fs_config.stripe_factor;
    report.config.simd_backend = simd::backend_name(simd::active());
    report.config.cpis = options_.cpis;
    report.config.warmup = options_.warmup;
    report.config.total_nodes = total;
    report.config.pin_threads = options_.world.pin_threads;
    report.config.numa_interleave = options_.world.numa_interleave;
    report.totals.throughput_cpis_per_s = result.metrics.throughput();
    report.totals.latency_s = result.metrics.latency();
    report.totals.wall_s = monotonic_now() - wall_start;
    report.totals.cpu_s = static_cast<double>(std::clock() - cpu_start) /
                          static_cast<double>(CLOCKS_PER_SEC);
    report.totals.dropped_cpis = result.metrics.dropped_cpis;
    for (const TaskTiming& t : result.metrics.tasks) {
      obs::RunReport::Task task;
      task.name = task_name(t.kind);
      task.nodes = t.nodes;
      task.phases.push_back({"receive", t.receive, t.receive_hist});
      task.phases.push_back({"compute", t.compute, t.compute_hist});
      task.phases.push_back({"send", t.send, t.send_hist});
      report.tasks.push_back(std::move(task));
    }
    report.io = result.metrics.io;
    if (options_.supervise.enabled) report.recovery = result.metrics.recovery;
    obs::ReportCollector::global().add(std::move(report));
  }
  return result;
}

}  // namespace pstap::pipeline
