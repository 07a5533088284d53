#include "common/parallel.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/error.hpp"

namespace pstap {

namespace {

// The CPUs of the calling thread's affinity mask other than the one it is
// running on, ascending; empty where that cannot be queried.
//
// Workers are pinned to these because the kernel can keep short-lived
// threads on their creator's CPU: on a 4-vCPU VM, in about half of the
// runs all four chunks of a scene's noise ran on one CPU (about 100 ms)
// while the other three stayed idle, against about 30 ms spread. Pinned,
// every run spread.
std::vector<int> other_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  const int self = sched_getcpu();
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (c != self && CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
#endif
  return cpus;
}

// Pin the calling thread to `cpu`; best effort (a refusal leaves it
// floating).
void pin_self([[maybe_unused]] int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#endif
}

}  // namespace

std::size_t parallel_chunks(std::size_t work, std::size_t min_per_chunk) {
  // Read once: hardware_concurrency() reads sysfs on every call.
  static const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(work / std::max<std::size_t>(min_per_chunk, 1), 1,
                                 cores);
}

void parallel_for(std::size_t chunks, const std::function<void(std::size_t)>& fn) {
  PSTAP_REQUIRE(chunks >= 1, "parallel_for needs at least one chunk");
  if (chunks == 1) {
    fn(0);
    return;
  }
  std::vector<std::exception_ptr> errors(chunks);
  const auto run = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  const std::vector<int> cpus = other_cpus();
  std::vector<std::thread> threads;
  threads.reserve(chunks - 1);
  try {
    for (std::size_t i = 1; i < chunks; ++i) {
      threads.emplace_back([&, i] {
        if (!cpus.empty()) pin_self(cpus[(i - 1) % cpus.size()]);
        run(i);
      });
    }
  } catch (...) {
    // Thread creation failed: join what started, then report it.
    for (std::thread& t : threads) t.join();
    throw;
  }
  run(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace pstap
