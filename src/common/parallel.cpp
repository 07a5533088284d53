#include "common/parallel.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <xmmintrin.h>
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

// CPUs the calling thread may run on: its affinity mask's count where that
// can be queried, else the hardware thread count. A thread pinned to one
// CPU gets 1, so a pinned rank never time-slices its own workers.
std::size_t allowed_cpus() {
  // Read once: hardware_concurrency() reads sysfs on every call.
  static const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
#if defined(__linux__)
  // The mask is per thread and may change, so it is read on every call.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    return std::clamp<std::size_t>(static_cast<std::size_t>(CPU_COUNT(&allowed)), 1,
                                   cores);
  }
#endif
  return cores;
}

// The calling thread's SSE control word (FTZ/DAZ, rounding); workers take
// their caller's, so a chunk computes exactly what the caller would.
struct FpEnv {
#if defined(__x86_64__) || defined(__i386__)
  unsigned csr = _mm_getcsr();
  void apply() const { _mm_setcsr(csr); }
#else
  void apply() const {}
#endif
};

}  // namespace

std::size_t parallel_chunks(std::size_t work, std::size_t min_per_chunk) {
  const std::size_t want = work / std::max<std::size_t>(min_per_chunk, 1);
  // Below two chunks' work the mask cannot change the answer: skip its
  // query, which a small per-CPI call would otherwise pay every time.
  return want <= 1 ? 1 : std::min(want, allowed_cpus());
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
  const FpEnv fp_env;
  std::vector<std::thread> threads;
  threads.reserve(chunks - 1);
  try {
    for (std::size_t i = 1; i < chunks; ++i) {
      threads.emplace_back([&, i] {
        fp_env.apply();
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
