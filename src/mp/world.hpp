// World: owns the mailboxes and threads backing an mp "machine".
//
// Each rank of the paper's parallel machine becomes one thread; World
// spawns them, hands each a Comm covering all ranks (context 0), and joins
// them, rethrowing the first rank exception so tests fail loudly. A rank
// that throws closes every mailbox, so its peers cannot hang waiting on it.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "mp/comm.hpp"
#include "mp/mailbox.hpp"

namespace pstap::mp {

/// Execution placement for a World's rank threads.
///
/// Pinned mode fixes each rank to one hardware CPU so the OS scheduler
/// cannot migrate ranks mid-CPI (migrations cost cold caches and — on
/// multi-socket boxes — remote-memory traffic on every pool buffer the rank
/// first-touched elsewhere). Rank r is pinned to cpu_set[r % cpu_set.size()].
/// Placement is best-effort by design: a cpu that cannot be pinned (bad id,
/// restrictive cgroup mask, non-Linux host) logs one warning and leaves that
/// rank floating rather than failing the run, and more ranks than cpus is
/// legal oversubscription — it logs once and wraps round-robin. The applied
/// state is observable: gauge "mp.pinned_ranks" counts ranks pinned in the
/// latest run(), counter "mp.pin.oversubscribed" counts oversubscribed
/// runs, counter "mp.pin.failed" counts failed pin attempts.
struct WorldOptions {
  /// Pin each rank thread to a hardware CPU.
  bool pin_threads = false;
  /// CPUs to pin to, in rank order. Empty = all cpus [0, hardware
  /// concurrency) — the natural "one rank per core" layout.
  std::vector<int> cpu_set;
  /// Ask for NUMA-interleaved rank memory. There is no NUMA allocation API
  /// in the build (no libnuma dependency), so this is satisfied by the
  /// first-touch policy already in place: BufferPool::acquire hands out
  /// uninitialized pages, so each rank's buffers fault into the node of the
  /// cpu the rank is pinned to. The flag exists so callers can state intent;
  /// it logs the fallback once when set.
  bool numa_interleave = false;
};

class World {
 public:
  /// Create a world of `size` ranks (>= 1). No threads run until run().
  explicit World(int size, WorldOptions options = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const noexcept { return static_cast<int>(mailboxes_.size()); }

  /// Execute `fn(comm)` on every rank, each in its own thread; blocks until
  /// all ranks return. The first exception a rank throws closes every
  /// mailbox, which wakes peers blocked in a receive, probe or bounded send
  /// with MailboxClosed; once all threads have been joined the mailboxes are
  /// reopened and that first exception (not a peer's MailboxClosed) is
  /// rethrown here.
  ///
  /// May be called repeatedly, also after a run that threw; mailboxes
  /// persist across calls (a message sent in one run() could be received in
  /// the next — avoid relying on it).
  void run(const std::function<void(Comm&)>& fn);

  /// Mailbox of a world rank (used by Comm).
  Mailbox& mailbox(int world_rank);

  /// Construct a world-spanning Comm (context 0) for `world_rank` without
  /// going through run() — the supervisor uses this to hand a respawned
  /// rank a communicator equivalent to the one its predecessor held.
  Comm make_comm(int world_rank);

  /// Close every mailbox: all ranks blocked in recv/probe across the world
  /// wake with MailboxClosed. The supervisor's abort path — turns a
  /// would-be hang into a clean world-wide unwind.
  void close_all_mailboxes();

  /// Reopen every mailbox (e.g. between runs in one World).
  void reopen_all_mailboxes();

  const WorldOptions& options() const noexcept { return options_; }

  /// Ranks successfully pinned by the most recent run() (0 when pinning is
  /// off). Mirrors the "mp.pinned_ranks" gauge for direct inspection.
  int pinned_ranks() const noexcept { return pinned_ranks_; }

 private:
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  WorldOptions options_;
  std::vector<int> resolved_cpus_;  // cpu_set with the empty default filled in
  int pinned_ranks_ = 0;
};

}  // namespace pstap::mp
