#include "pfs/striped_file_system.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "obs/trace.hpp"

namespace pstap::pfs {

namespace fs = std::filesystem;

PfsConfig paragon_pfs(std::size_t stripe_factor) {
  PfsConfig cfg;
  cfg.name = "paragon-pfs-sf" + std::to_string(stripe_factor);
  cfg.stripe_factor = stripe_factor;
  cfg.stripe_unit = 64 * KiB;
  cfg.supports_async = true;
  return cfg;
}

void apply_env_overrides(PfsConfig& config) {
  if (const char* env = std::getenv("PSTAP_STRAGGLER_SCHED")) {
    const std::string v = env;
    config.straggler_sched = !(v == "0" || v == "off" || v == "OFF");
  }
}

PfsConfig piofs(std::size_t stripe_factor) {
  PfsConfig cfg;
  cfg.name = "piofs-sf" + std::to_string(stripe_factor);
  cfg.stripe_factor = stripe_factor;
  cfg.stripe_unit = 64 * KiB;
  cfg.supports_async = false;  // PIOFS has no asynchronous read API
  return cfg;
}

std::string stripe_dir_name(std::size_t dir) {
  std::string digits = std::to_string(dir);
  if (digits.size() < 3) digits.insert(0, 3 - digits.size(), '0');
  return "sd" + digits;
}

StripedFileSystem::StripedFileSystem(fs::path root, PfsConfig config)
    : root_(std::move(root)), config_(std::move(config)) {
  apply_env_overrides(config_);
  PSTAP_REQUIRE(config_.stripe_factor >= 1, "stripe factor must be >= 1");
  PSTAP_REQUIRE(config_.stripe_unit >= 1, "stripe unit must be >= 1 byte");
  PSTAP_REQUIRE(config_.replicas >= 1 && config_.replicas <= 2,
                "pfs supports 1 (none) or 2 (one replica) copies per unit");
  PSTAP_REQUIRE(config_.replicas == 1 || config_.stripe_factor >= 2,
                "replication needs at least two stripe directories");
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) PSTAP_IO_FAIL("cannot create pfs root " + root_.string(), ec.value());

  // Superblock: the striping layout is a property of the on-disk data, not
  // of the mount. Persist it on first mount; verify it afterwards.
  const fs::path super = root_ / ".pfs_superblock";
  if (fs::exists(super)) {
    std::ifstream in(super);
    std::size_t factor = 0, unit = 0;
    if (!(in >> factor >> unit)) {
      PSTAP_IO_FAIL("corrupt pfs superblock at " + super.string(), 0);
    }
    PSTAP_REQUIRE(factor == config_.stripe_factor && unit == config_.stripe_unit,
                  "mount layout (stripe factor " +
                      std::to_string(config_.stripe_factor) + ", unit " +
                      std::to_string(config_.stripe_unit) +
                      ") does not match the on-disk layout (factor " +
                      std::to_string(factor) + ", unit " + std::to_string(unit) +
                      ")");
  } else {
    std::ofstream out(super, std::ios::trunc);
    out << config_.stripe_factor << ' ' << config_.stripe_unit << '\n';
    if (!out) PSTAP_IO_FAIL("cannot write pfs superblock", errno);
  }

  for (std::size_t d = 0; d < config_.stripe_factor; ++d) {
    fs::create_directories(root_ / stripe_dir_name(d), ec);
    if (ec) PSTAP_IO_FAIL("cannot create stripe directory", ec.value());
  }
  engine_ = std::make_unique<IoEngine>(config_);
  // Recover the catalog from persisted metadata.
  for (const auto& entry : fs::directory_iterator(root_)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".meta") continue;
    std::ifstream in(entry.path());
    std::uint64_t size = 0;
    if (in >> size) catalog_[entry.path().stem().string()] = size;
  }
}

StripedFileSystem::~StripedFileSystem() = default;

void StripedFileSystem::validate_name(const std::string& name) const {
  PSTAP_REQUIRE(!name.empty() && name.find('/') == std::string::npos &&
                    name.find("..") == std::string::npos,
                "file name must be a non-empty basename");
}

fs::path StripedFileSystem::segment_path(const std::string& name, std::size_t dir) const {
  return root_ / stripe_dir_name(dir) / (name + ".seg");
}

fs::path StripedFileSystem::replica_path(const std::string& name, std::size_t dir) const {
  // Replica of the units whose primary is `dir` lives one directory over,
  // so losing a single stripe directory never loses both copies of a unit.
  return root_ / stripe_dir_name((dir + 1) % config_.stripe_factor) /
         (name + ".r1.seg");
}

fs::path StripedFileSystem::meta_path(const std::string& name) const {
  return root_ / (name + ".meta");
}

std::uint64_t StripedFileSystem::file_id(const std::string& name, bool fresh) {
  std::lock_guard lock(mu_);
  auto it = file_ids_.find(name);
  if (it != file_ids_.end() && !fresh) return it->second;
  return file_ids_[name] = next_file_id_++;
}

bool StripedFileSystem::exists(const std::string& name) const {
  validate_name(name);
  std::lock_guard lock(mu_);
  return catalog_.contains(name);
}

std::uint64_t StripedFileSystem::file_size(const std::string& name) const {
  validate_name(name);
  std::lock_guard lock(mu_);
  const auto it = catalog_.find(name);
  PSTAP_REQUIRE(it != catalog_.end(), "file does not exist: " + name);
  return it->second;
}

std::vector<std::string> StripedFileSystem::list_files() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(catalog_.size());
  for (const auto& [name, size] : catalog_) names.push_back(name);
  return names;
}

std::uint64_t StripedFileSystem::catalog_size(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = catalog_.find(name);
  return it == catalog_.end() ? 0 : it->second;
}

void StripedFileSystem::catalog_extend(const std::string& name, std::uint64_t new_size) {
  std::lock_guard lock(mu_);
  auto& size = catalog_[name];
  if (new_size <= size) return;
  size = new_size;
  std::ofstream out(meta_path(name), std::ios::trunc);
  out << size << '\n';
  if (!out) PSTAP_IO_FAIL("cannot persist metadata for " + name, errno);
}

StripedFile StripedFileSystem::open(const std::string& name) {
  validate_name(name);
  {
    std::lock_guard lock(mu_);
    PSTAP_REQUIRE(catalog_.contains(name), "file does not exist: " + name);
  }
  const auto open_all = [&](auto path_of, std::vector<int>& fds) {
    fds.reserve(config_.stripe_factor);
    for (std::size_t d = 0; d < config_.stripe_factor; ++d) {
      const int fd = ::open(path_of(d).c_str(), O_RDWR | O_CREAT, 0644);
      if (fd < 0) {
        for (int f : fds) ::close(f);
        PSTAP_IO_FAIL("cannot open segment of " + name, errno);
      }
      fds.push_back(fd);
    }
  };
  std::vector<int> fds;
  open_all([&](std::size_t d) { return segment_path(name, d); }, fds);
  std::vector<int> replica_fds;
  if (config_.replicas > 1) {
    open_all([&](std::size_t d) { return replica_path(name, d); }, replica_fds);
  }
  return StripedFile(this, name, file_id(name, /*fresh=*/false), std::move(fds),
                     std::move(replica_fds));
}

StripedFile StripedFileSystem::create(const std::string& name) {
  validate_name(name);
  {
    std::lock_guard lock(mu_);
    catalog_[name] = 0;
    std::ofstream out(meta_path(name), std::ios::trunc);
    out << 0 << '\n';
  }
  for (std::size_t d = 0; d < config_.stripe_factor; ++d) {
    // Truncate any stale segment content.
    const int fd = ::open(segment_path(name, d).c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) PSTAP_IO_FAIL("cannot create segment of " + name, errno);
    ::close(fd);
    if (config_.replicas > 1) {
      const int rfd =
          ::open(replica_path(name, d).c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
      if (rfd < 0) PSTAP_IO_FAIL("cannot create replica segment of " + name, errno);
      ::close(rfd);
    }
  }
  // Fresh id: checksums recorded for the overwritten incarnation (if any)
  // are orphaned rather than matched against the new contents.
  (void)file_id(name, /*fresh=*/true);
  return open(name);
}

void StripedFileSystem::write_file(const std::string& name,
                                   std::span<const std::byte> data) {
  StripedFile f = create(name);
  f.write(0, data);
}

std::vector<std::byte> StripedFileSystem::read_file(const std::string& name) {
  StripedFile f = open(name);
  std::vector<std::byte> data(f.size());
  if (!data.empty()) f.read(0, data);
  return data;
}

void StripedFileSystem::remove(const std::string& name) {
  validate_name(name);
  std::uint64_t id = 0;
  {
    std::lock_guard lock(mu_);
    PSTAP_REQUIRE(catalog_.erase(name) == 1, "file does not exist: " + name);
    const auto it = file_ids_.find(name);
    if (it != file_ids_.end()) {
      id = it->second;
      file_ids_.erase(it);
    }
  }
  if (id != 0) checksums_.drop_file(id);
  std::error_code ec;
  fs::remove(meta_path(name), ec);
  for (std::size_t d = 0; d < config_.stripe_factor; ++d) {
    fs::remove(segment_path(name, d), ec);
    fs::remove(replica_path(name, d), ec);
  }
}

// ---------------------------------------------------------- StripedFile --

StripedFile::StripedFile(StripedFileSystem* fs, std::string name, std::uint64_t file_id,
                         std::vector<int> segment_fds, std::vector<int> replica_fds)
    : fs_(fs), name_(std::move(name)), file_id_(file_id),
      segment_fds_(std::move(segment_fds)), replica_fds_(std::move(replica_fds)) {}

StripedFile::StripedFile(StripedFile&& other) noexcept
    : fs_(other.fs_), name_(std::move(other.name_)), file_id_(other.file_id_),
      segment_fds_(std::move(other.segment_fds_)),
      replica_fds_(std::move(other.replica_fds_)) {
  other.segment_fds_.clear();
  other.replica_fds_.clear();
  other.fs_ = nullptr;
}

StripedFile& StripedFile::operator=(StripedFile&& other) noexcept {
  if (this != &other) {
    for (int fd : segment_fds_) ::close(fd);
    for (int fd : replica_fds_) ::close(fd);
    fs_ = other.fs_;
    name_ = std::move(other.name_);
    file_id_ = other.file_id_;
    segment_fds_ = std::move(other.segment_fds_);
    replica_fds_ = std::move(other.replica_fds_);
    other.segment_fds_.clear();
    other.replica_fds_.clear();
    other.fs_ = nullptr;
  }
  return *this;
}

StripedFile::~StripedFile() {
  for (int fd : segment_fds_) ::close(fd);
  for (int fd : replica_fds_) ::close(fd);
}

std::uint64_t StripedFile::size() const { return fs_->catalog_size(name_); }

void StripedFile::append_piece(Batch& batch, const Route& route,
                               const IoEngine::Piece& piece, bool is_write) const {
  // Find (or, in coalescing mode, create once) the batch job for the
  // route's (server, fd) pair and append the piece to it. In per-chunk mode
  // every piece gets its own job — the paper's baseline request shape.
  if (batch.coalesce) {
    const auto [it, fresh] = batch.slot.try_emplace(
        std::make_pair(route.server, route.fd), batch.jobs.size());
    if (!fresh) {
      batch.jobs[it->second].pieces.push_back(piece);
      return;
    }
  }
  IoEngine::Job job;
  job.fd = route.fd;
  job.is_write = is_write;
  job.pieces.push_back(piece);
  job.checksums = route.checksums;
  job.file_id = file_id_;
  job.server = route.server;
  batch.jobs.push_back(std::move(job));
}

StripedFile::Route StripedFile::read_route(std::size_t dir, std::size_t server) {
  // The checksum catalog applies to either copy — both carry identical
  // unit contents.
  return {server, server == dir ? segment_fds_[dir] : replica_fds_[dir],
          &fs_->checksums_};
}

void StripedFile::append_jobs(Batch& batch, std::uint64_t offset, std::byte* buf,
                              std::size_t len, bool is_write) {
  const std::size_t unit = fs_->config().stripe_unit;
  const std::size_t factor = fs_->config().stripe_factor;
  for (std::uint64_t pos = offset; pos < offset + len;) {
    const std::uint64_t unit_index = pos / unit;
    const std::uint64_t in_unit = pos % unit;
    const std::uint64_t take = std::min<std::uint64_t>(unit - in_unit, offset + len - pos);
    const std::size_t dir = static_cast<std::size_t>(unit_index % factor);
    const std::size_t replica_dir = (dir + 1) % factor;
    IoEngine::Piece piece;
    piece.offset = (unit_index / factor) * unit + in_unit;
    piece.buf = buf + (pos - offset);
    piece.len = static_cast<std::size_t>(take);
    piece.unit_index = unit_index;
    piece.unit_seg_offset = (unit_index / factor) * unit;
    pos += take;

    if (batch.balance) {
      batch.units.push_back({dir, piece.len});
      batch.unplaced.push_back(piece);
    } else if (is_write) {
      append_piece(batch, {dir, segment_fds_[dir], &fs_->checksums_}, piece, is_write);
      if (replicated()) {
        // The primary write records the CRC; the mirror only lands bytes.
        append_piece(batch, {replica_dir, replica_fds_[dir], nullptr}, piece, is_write);
      }
    } else {
      const bool down = replicated() && fs_->engine().quarantined(dir);
      append_piece(batch, read_route(dir, down ? replica_dir : dir), piece, is_write);
    }
  }
}

std::vector<std::size_t> plan_read_units(std::span<const ReadUnit> units,
                                         std::span<const double> sec_per_byte,
                                         const std::vector<bool>& available,
                                         std::vector<double>& load) {
  const std::size_t factor = sec_per_byte.size();
  std::vector<std::size_t> servers;
  servers.reserve(units.size());
  for (const ReadUnit& u : units) {
    const std::size_t primary = u.dir;
    const std::size_t replica = (u.dir + 1) % factor;
    const double bytes = static_cast<double>(u.bytes);
    const bool use_replica =
        !available[primary] ||
        (available[replica] && (load[replica] + bytes) * sec_per_byte[replica] <
                                   (load[primary] + bytes) * sec_per_byte[primary]);
    const std::size_t server = use_replica ? replica : primary;
    load[server] += bytes;
    servers.push_back(server);
  }
  return servers;
}

StripedFile::Batch StripedFile::make_batch(bool is_write) {
  Batch batch;
  batch.coalesce = fs_->config().straggler_sched;
  if (batch.coalesce && !is_write && replicated()) {
    const std::vector<bool> slow = fs_->engine().slow_servers();
    batch.balance = std::find(slow.begin(), slow.end(), true) != slow.end();
  }
  return batch;
}

void StripedFile::place_reads(Batch& batch) {
  IoEngine& engine = fs_->engine();
  const std::size_t n = engine.servers();
  const std::vector<double> rate = engine.sec_per_byte();
  std::vector<double> queued(n);
  std::vector<bool> available(n);
  for (std::size_t s = 0; s < n; ++s) {
    queued[s] = static_cast<double>(engine.queued_bytes(s));
    available[s] = !engine.quarantined(s);
  }
  std::vector<double> balanced = queued;
  const std::vector<std::size_t> servers =
      plan_read_units(batch.units, rate, available, balanced);
  std::vector<double> primary = queued;  // every piece on its primary
  for (const ReadUnit& u : batch.units) {
    primary[available[u.dir] ? u.dir : (u.dir + 1) % n] += static_cast<double>(u.bytes);
  }
  // Expected finish of the request: its last server to drain.
  const auto finish = [&](const std::vector<double>& load) {
    double latest = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (load[s] > queued[s]) latest = std::max(latest, load[s] * rate[s]);
    }
    return latest;
  };
  const bool balance = finish(primary) - finish(balanced) >= kMinPlacementGain;

  std::uint64_t diverted = 0;
  for (std::size_t i = 0; i < batch.units.size(); ++i) {
    const std::size_t dir = batch.units[i].dir;
    const bool down = !available[dir];
    const std::size_t server = balance ? servers[i] : (down ? (dir + 1) % n : dir);
    if (server != dir && !down) ++diverted;
    append_piece(batch, read_route(dir, server), batch.unplaced[i], /*is_write=*/false);
  }
  engine.record_chunks_stolen(diverted);
}

IoRequest StripedFile::dispatch(Batch&& batch) {
  if (batch.balance) place_reads(batch);
  if (batch.jobs.empty()) return IoRequest{};
  // Pending completions = jobs (with coalescing, one per touched server),
  // not chunks: a list job completes its request slot once.
  IoRequest req = fs_->engine().make_request(batch.jobs.size());
  for (IoEngine::Job& job : batch.jobs) {
    job.state = req.state_;
    fs_->engine().submit(std::move(job));
  }
  return req;
}

IoRequest StripedFile::submit(std::span<const IoSegment> segments, bool is_write) {
  if (!is_write) {
    const std::uint64_t file_size = size();
    for (const IoSegment& seg : segments) {
      PSTAP_REQUIRE(seg.offset + seg.buf.size() <= file_size,
                    "read past end of file " + name_);
    }
  }
  // Logical-level injection site: faults armed here fail the whole request
  // up front (a metadata/open-path failure), before any chunk is queued.
  const std::int64_t started_ns = obs::trace_now_ns();
  fault::inject((is_write ? "pfs.file.write." : "pfs.file.read.") + name_);
  // One batch across ALL segments: with coalescing on, a rank's whole
  // strided slab collapses into at most one list-I/O job per server.
  Batch batch = make_batch(is_write);
  for (const IoSegment& seg : segments) {
    if (!seg.buf.empty()) {
      append_jobs(batch, seg.offset, seg.buf.data(), seg.buf.size(), is_write);
    }
  }
  IoRequest req = dispatch(std::move(batch));
  const std::int64_t dur_ns = obs::trace_now_ns() - started_ns;
  fs_->engine().record_submit_latency(static_cast<double>(dur_ns) * 1e-9);
  if (obs::trace_enabled()) {
    obs::TraceRecorder::global().complete(
        "io", is_write ? "submit.write" : "submit.read", obs::kLibraryPid,
        started_ns, dur_ns, /*cpi=*/-1, name_);
  }
  return req;
}

IoRequest StripedFile::iread_gather(std::span<const IoSegment> segments) {
  IoRequest req = submit(segments, /*is_write=*/false);
  // PIOFS semantics: no asynchronous read API — the call returns only after
  // the transfer is complete, so no overlap is possible.
  if (!fs_->config().supports_async) req.wait();
  return req;
}

IoRequest StripedFile::iread(std::uint64_t offset, std::span<std::byte> out) {
  if (out.empty()) return IoRequest{};
  const IoSegment seg{offset, out};
  return iread_gather({&seg, 1});
}

void StripedFile::read(std::uint64_t offset, std::span<std::byte> out) {
  iread(offset, out).wait();
}

void StripedFile::write(std::uint64_t offset, std::span<const std::byte> data) {
  if (data.empty()) return;
  // Engine jobs only write into the caller's buffer for reads; for writes
  // the buffer is read-only in practice — const_cast is confined here.
  const IoSegment seg{offset, {const_cast<std::byte*>(data.data()), data.size()}};
  submit({&seg, 1}, /*is_write=*/true).wait();
  fs_->catalog_extend(name_, offset + data.size());
}

}  // namespace pstap::pfs
