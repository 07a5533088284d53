// A file striped round-robin across the stripe directories of a
// StripedFileSystem, with synchronous and asynchronous positioned I/O.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pfs/io_engine.hpp"

namespace pstap::pfs {

class StripedFileSystem;

/// A piece of one stripe unit to be read: its primary directory and length.
struct ReadUnit {
  std::size_t dir = 0;
  std::size_t bytes = 0;
};

/// Placement reshapes a request only when the plan is expected to finish
/// at least this much sooner than all-primary, so timing noise on a healthy
/// mount never splits a request's jobs.
inline constexpr Seconds kMinPlacementGain = 2e-3;

/// Replica-balanced read placement (DESIGN.md §12). For each unit, in
/// order, pick the copy expected to finish first: the primary on `dir` or
/// the replica on (dir + 1) % F, with F = sec_per_byte.size(). A copy's
/// finish estimate on server s is (load[s] + bytes) x sec_per_byte[s];
/// ties go to the primary. An unavailable (quarantined) server is never
/// chosen while the other copy is available. `load` enters as each
/// server's queued bytes and gains every unit planned onto it. Returns the
/// chosen server per unit.
std::vector<std::size_t> plan_read_units(std::span<const ReadUnit> units,
                                         std::span<const double> sec_per_byte,
                                         const std::vector<bool>& available,
                                         std::vector<double>& load);

/// Open handle to a striped file. Obtained from StripedFileSystem::open()
/// or ::create() — the analogue of the paper's global open (gopen).
///
/// All reads/writes are positioned (pread/pwrite style) and thread-safe
/// with respect to each other, matching the paper's usage where every node
/// of the first task reads its own exclusive file region.
class StripedFile {
 public:
  StripedFile(StripedFile&&) noexcept;
  StripedFile& operator=(StripedFile&&) noexcept;
  StripedFile(const StripedFile&) = delete;
  StripedFile& operator=(const StripedFile&) = delete;
  ~StripedFile();

  const std::string& name() const noexcept { return name_; }

  /// Current logical file size in bytes.
  std::uint64_t size() const;

  /// Blocking read of out.size() bytes at `offset`. The range must lie
  /// within the file.
  void read(std::uint64_t offset, std::span<std::byte> out);

  /// Asynchronous read (the paper's iread()): returns immediately with a
  /// request handle on async-capable file systems; on synchronous-only
  /// configurations (PIOFS) the transfer completes before returning and
  /// the handle is already done — callers get no overlap, by design.
  [[nodiscard]] IoRequest iread(std::uint64_t offset, std::span<std::byte> out);

  /// Blocking write of data.size() bytes at `offset`, extending the file
  /// as needed.
  void write(std::uint64_t offset, std::span<const std::byte> data);

  /// One piece of a gather read: `buf.size()` bytes at file offset `offset`.
  struct IoSegment {
    std::uint64_t offset = 0;
    std::span<std::byte> buf;
  };

  /// Asynchronous gather read: every segment is queued under ONE request —
  /// the strided-access primitive (e.g. a range slab of a pulse-major CPI
  /// file is pulses*channels small segments). Segments must lie within the
  /// file. Honors the file system's async capability like iread().
  [[nodiscard]] IoRequest iread_gather(std::span<const IoSegment> segments);

  /// Typed convenience wrappers.
  template <typename T>
  [[nodiscard]] IoRequest iread_values(std::uint64_t offset, std::span<T> out) {
    return iread(offset, std::as_writable_bytes(out));
  }
  template <typename T>
  void write_values(std::uint64_t offset, std::span<const T> data) {
    write(offset, std::as_bytes(data));
  }

 private:
  friend class StripedFileSystem;
  StripedFile(StripedFileSystem* fs, std::string name, std::uint64_t file_id,
              std::vector<int> segment_fds, std::vector<int> replica_fds);

  /// Jobs for one logical request, accumulated before dispatch. With
  /// `coalesce` set (`straggler_sched` on) chunks landing on the same
  /// (server, segment fd) merge into ONE list-I/O job — pieces of every
  /// gather segment included — so a strided slab becomes one request per
  /// server instead of one per chunk; otherwise one single-piece job per
  /// chunk (the paper's baseline shape).
  ///
  /// `balance` arms replica-balanced placement for a read batch (some
  /// server is slow, `straggler_sched` on, file replicated): pieces wait in
  /// `unplaced`, `units` holding their primary directories, until dispatch
  /// places them all at once.
  struct Batch {
    std::vector<IoEngine::Job> jobs;
    std::map<std::pair<std::size_t, int>, std::size_t> slot;  // (server,fd)
    bool coalesce = false;
    bool balance = false;
    std::vector<ReadUnit> units;
    std::vector<IoEngine::Piece> unplaced;
  };

  /// Where one piece goes: the queue, the segment it is served from, and
  /// the checksum catalog to verify or record against (nullptr: none).
  struct Route {
    std::size_t server = 0;
    int fd = -1;
    ChecksumCatalog* checksums = nullptr;
  };

  /// An empty batch shaped by the file system's configuration and, for
  /// reads, by the engine's current slowness verdict.
  Batch make_batch(bool is_write);

  /// Split [offset, offset+len) into per-stripe-unit pieces and append
  /// them to the batch (failover, write mirroring, or held for placement).
  void append_jobs(Batch& batch, std::uint64_t offset, std::byte* buf,
                   std::size_t len, bool is_write);
  void append_piece(Batch& batch, const Route& route, const IoEngine::Piece& piece,
                    bool is_write) const;
  /// Route for reading a unit whose primary directory is `dir` from
  /// `server` (the primary, or the replica one directory over).
  Route read_route(std::size_t dir, std::size_t server);

  /// Replica-balanced placement of the batch's held read pieces.
  void place_reads(Batch& batch);

  /// Create the request, attach its state to every job, submit.
  IoRequest dispatch(Batch&& batch);

  /// The one submit path of every logical request (read, iread, gather,
  /// write): bounds-checks reads, hits the `pfs.file.read.<name>` or
  /// `pfs.file.write.<name>` fault site once, queues every segment under
  /// one request, and records one submit latency and one `io` span.
  IoRequest submit(std::span<const IoSegment> segments, bool is_write);
  bool replicated() const noexcept { return !replica_fds_.empty(); }

  StripedFileSystem* fs_ = nullptr;
  std::string name_;
  std::uint64_t file_id_ = 0;
  std::vector<int> segment_fds_;  // one per stripe directory
  std::vector<int> replica_fds_;  // indexed by PRIMARY directory; may be empty
};

}  // namespace pstap::pfs
