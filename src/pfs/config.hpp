// Configuration of a striped parallel file system instance.
//
// Models the two systems the paper measures:
//   * Paragon PFS  — stripe directories with asynchronous reads
//     (gopen + M_ASYNC, iread()/ireadoff()), letting I/O overlap compute;
//   * IBM PIOFS    — striped "slices" but synchronous-only read/write.
//
// The optional per-server bandwidth throttle stands in for the finite
// service rate of a real I/O server so that stripe-factor effects are
// observable even on a fast local disk (see DESIGN.md substitutions).
#pragma once

#include <cstddef>
#include <string>

#include "common/types.hpp"

namespace pstap::pfs {

struct PfsConfig {
  /// Human-readable name used in logs and bench tables.
  std::string name = "pfs";

  /// Number of stripe directories (I/O servers). Paper contrasts a small
  /// (16) and a large (64) Paragon PFS plus the SP's PIOFS.
  std::size_t stripe_factor = 16;

  /// Striping granularity in bytes; 64 KB on both of the paper's systems.
  std::size_t stripe_unit = 64 * KiB;

  /// Whether the client API supports asynchronous reads. When false
  /// (PIOFS), iread() completes the transfer before returning, so callers
  /// cannot overlap I/O with compute — exactly the limitation the paper
  /// blames for the SP's poor pipeline scaling.
  bool supports_async = true;

  /// Per-stripe-directory service bandwidth in bytes/second; 0 disables
  /// throttling (tests) — set it to emulate finite I/O servers (benches).
  double server_bandwidth = 0.0;

  /// Fixed per-chunk service latency in seconds (request setup + seek).
  double server_latency = 0.0;

  /// Copies kept of each stripe unit. 1 = no replication; 2 adds one
  /// replica of unit u in stripe directory (u % F + 1) % F, used to serve
  /// reads when the primary directory is quarantined.
  std::size_t replicas = 1;

  /// Circuit breaker: consecutive chunk failures on one stripe directory
  /// before it is quarantined (0 disables the breaker).
  std::size_t quarantine_threshold = 0;

  /// Half-open probe: a quarantined stripe directory is re-probed after
  /// this long — the breaker admits traffic again and the first chunk
  /// outcome decides whether the server rejoins (success closes the
  /// breaker and bumps `pfs.breaker_reopened`) or is re-quarantined.
  /// 0 keeps the pre-probe behavior: quarantined until remount.
  Seconds breaker_probe_interval = 0;

  // ----------------------- straggler defense (DESIGN.md §12) -------------
  // List-I/O coalescing plus replica-balanced read placement, both decided
  // at submit time; the circuit breaker's failover runs either way. OFF by
  // default so the paper's baseline shapes (stripe-sweep bottleneck,
  // straggler degradation curve) are preserved; the environment variable
  // PSTAP_STRAGGLER_SCHED overrides this flag at mount time ("0"/"off"
  // forces it off, anything else forces it on).

  /// Master switch for the straggler defense: list-I/O coalescing of
  /// multi-chunk requests, and replica-balanced placement of replicated
  /// reads while some server is slow.
  bool straggler_sched = false;

  // Built-in straggler *emulation* for benches/tests — the functional twin
  // of sim::MachineModel::straggler_{servers,slowdown}: the first
  // `straggler_servers` stripe directories service at modeled rate x
  // `straggler_slowdown`. Unlike fault-injected delays, the slowdown
  // scales with the bytes actually moved, so list-I/O coalescing is
  // neither penalized nor subsidized by the emulation.
  std::size_t straggler_servers = 0;
  double straggler_slowdown = 1.0;
};

/// Apply the PSTAP_STRAGGLER_SCHED environment override (if set) to
/// `config.straggler_sched`. Called by StripedFileSystem at mount.
void apply_env_overrides(PfsConfig& config);

/// Paragon-PFS-like presets used throughout tests and benches.
PfsConfig paragon_pfs(std::size_t stripe_factor);

/// PIOFS-like preset (no async support).
PfsConfig piofs(std::size_t stripe_factor = 80);

/// Name of stripe directory (and I/O server) `dir`: "sd000", "sd001", ...
std::string stripe_dir_name(std::size_t dir);

}  // namespace pstap::pfs
