// StripedFileSystem: a working parallel file system over a local directory
// tree, built from scratch as the substrate for the paper's I/O study.
//
// Layout: root/sd000 .. sd<F-1> are the stripe directories. A logical file
// `name` is stored as segments `sdXXX/name.seg`; logical byte x lives in
// stripe unit u = x / stripe_unit, directory u % F, at segment offset
// (u / F) * stripe_unit + x % stripe_unit. Logical sizes are tracked in an
// in-process catalog and persisted to root/<name>.meta.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "pfs/config.hpp"
#include "pfs/io_engine.hpp"
#include "pfs/striped_file.hpp"

namespace pstap::pfs {

class StripedFileSystem {
 public:
  /// Mount (creating if needed) a striped file system rooted at `root`.
  /// The layout (stripe factor/unit) is persisted in a superblock file on
  /// first mount; remounting with a different layout throws, because reads
  /// through a mismatched layout would silently deliver garbled data.
  /// Service parameters (bandwidth, async capability) may differ per mount.
  StripedFileSystem(std::filesystem::path root, PfsConfig config);
  ~StripedFileSystem();

  StripedFileSystem(const StripedFileSystem&) = delete;
  StripedFileSystem& operator=(const StripedFileSystem&) = delete;

  const PfsConfig& config() const noexcept { return config_; }
  const std::filesystem::path& root() const noexcept { return root_; }

  /// True if a logical file exists.
  bool exists(const std::string& name) const;

  /// Logical size of an existing file.
  std::uint64_t file_size(const std::string& name) const;

  /// Names of all logical files, sorted.
  std::vector<std::string> list_files() const;

  /// Open an existing file (global open: every rank may open the same file
  /// and issue positioned reads concurrently).
  StripedFile open(const std::string& name);

  /// Create (or truncate) a file and open it.
  StripedFile create(const std::string& name);

  /// Convenience: create `name` holding exactly `data`.
  void write_file(const std::string& name, std::span<const std::byte> data);

  /// Convenience: read the whole file.
  std::vector<std::byte> read_file(const std::string& name);

  /// Delete a logical file and its segments.
  void remove(const std::string& name);

  IoEngine& engine() noexcept { return *engine_; }

  /// Per-unit CRC32C catalog backing end-to-end read verification.
  ChecksumCatalog& checksums() noexcept { return checksums_; }

 private:
  friend class StripedFile;

  std::filesystem::path segment_path(const std::string& name, std::size_t dir) const;
  std::filesystem::path replica_path(const std::string& name, std::size_t dir) const;
  std::filesystem::path meta_path(const std::string& name) const;
  void validate_name(const std::string& name) const;

  /// Stable id of a logical file (assigned on first touch; create() issues
  /// a fresh one so checksums of the overwritten incarnation are orphaned).
  std::uint64_t file_id(const std::string& name, bool fresh);

  /// Catalog access (logical sizes), guarded by mu_.
  std::uint64_t catalog_size(const std::string& name) const;
  void catalog_extend(const std::string& name, std::uint64_t new_size);

  std::filesystem::path root_;
  PfsConfig config_;
  std::unique_ptr<IoEngine> engine_;
  ChecksumCatalog checksums_;

  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> catalog_;   // name -> logical size
  std::map<std::string, std::uint64_t> file_ids_;  // name -> stable id
  std::uint64_t next_file_id_ = 1;
};

}  // namespace pstap::pfs
