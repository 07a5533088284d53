#include "mp/world.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/error.hpp"
#include "common/simd.hpp"
#include "obs/metrics.hpp"

namespace pstap::mp {

namespace {

// Pin the calling thread to one cpu. Best-effort: returns false (after a
// one-line warning) instead of failing the rank.
bool pin_self(int cpu, int rank) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu < 0 || cpu >= CPU_SETSIZE) {
    std::fprintf(stderr, "pstap: rank %d cpu %d out of range; not pinning\n",
                 rank, cpu);
    return false;
  }
  CPU_SET(cpu, &set);
  const int rc = pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  if (rc != 0) {
    std::fprintf(stderr,
                 "pstap: rank %d failed to pin to cpu %d (errno %d); "
                 "running unpinned\n",
                 rank, cpu, rc);
    return false;
  }
  return true;
#else
  std::fprintf(stderr,
               "pstap: thread pinning not supported on this platform; "
               "rank %d (cpu %d) running unpinned\n",
               rank, cpu);
  return false;
#endif
}

}  // namespace

World::World(int size, WorldOptions options) : options_(std::move(options)) {
  PSTAP_REQUIRE(size >= 1, "World size must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());

  if (options_.pin_threads) {
    resolved_cpus_ = options_.cpu_set;
    if (resolved_cpus_.empty()) {
      const unsigned hc = std::thread::hardware_concurrency();
      for (unsigned c = 0; c < hc; ++c) resolved_cpus_.push_back(static_cast<int>(c));
      if (resolved_cpus_.empty()) resolved_cpus_.push_back(0);
    }
    if (static_cast<std::size_t>(size) > resolved_cpus_.size()) {
      std::fprintf(stderr,
                   "pstap: %d ranks over %zu cpus — oversubscribed; pinning "
                   "round-robin\n",
                   size, resolved_cpus_.size());
      obs::Registry::global().counter("mp.pin.oversubscribed").add();
    }
  }
  if (options_.numa_interleave) {
    std::fprintf(stderr,
                 "pstap: numa_interleave: no NUMA allocation API in this "
                 "build; relying on first-touch placement of pool buffers\n");
  }
}

World::~World() = default;

Mailbox& World::mailbox(int world_rank) {
  PSTAP_REQUIRE(world_rank >= 0 && world_rank < size(), "world rank out of range");
  return *mailboxes_[static_cast<std::size_t>(world_rank)];
}

Comm World::make_comm(int world_rank) {
  PSTAP_REQUIRE(world_rank >= 0 && world_rank < size(), "world rank out of range");
  const int n = size();
  std::vector<int> identity(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) identity[static_cast<std::size_t>(i)] = i;
  return Comm(this, std::move(identity), world_rank, /*context=*/0);
}

void World::close_all_mailboxes() {
  for (auto& mailbox : mailboxes_) mailbox->close();
}

void World::reopen_all_mailboxes() {
  for (auto& mailbox : mailboxes_) mailbox->reopen();
}

void World::run(const std::function<void(Comm&)>& fn) {
  const int n = size();
  std::vector<int> identity(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) identity[static_cast<std::size_t>(i)] = i;

  std::atomic<int> pinned{0};
  std::mutex error_mu;
  std::exception_ptr first_error;  // guarded by error_mu
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([this, &fn, &identity, &error_mu, &first_error, &pinned, r] {
      // Per-thread FP environment first (FTZ/DAZ), then placement, so the
      // rank's first-touch allocations already happen on its final cpu.
      simd::init_thread();
      if (options_.pin_threads && !resolved_cpus_.empty()) {
        const int cpu = resolved_cpus_[static_cast<std::size_t>(r) %
                                       resolved_cpus_.size()];
        if (pin_self(cpu, r)) {
          pinned.fetch_add(1, std::memory_order_relaxed);
        } else {
          obs::Registry::global().counter("mp.pin.failed").add();
        }
      }
      try {
        Comm comm(this, identity, r, /*context=*/0);
        fn(comm);
      } catch (...) {
        // The first failure closes every mailbox, so peers blocked in a
        // receive or a bounded send unwind with MailboxClosed instead of
        // waiting forever for this rank; their errors are not kept.
        std::lock_guard lock(error_mu);
        if (!first_error) {
          first_error = std::current_exception();
          close_all_mailboxes();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  pinned_ranks_ = pinned.load(std::memory_order_relaxed);
  obs::Registry::global().gauge("mp.pinned_ranks").set(pinned_ranks_);
  if (first_error) {
    reopen_all_mailboxes();
    std::rethrow_exception(first_error);
  }
}

}  // namespace pstap::mp
