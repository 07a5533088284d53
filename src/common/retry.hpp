// Retry with exponential backoff for I/O operations, and the timeout
// error raised when a bounded wait expires. Header-only; with_retry is the
// one retry loop: stap::cube_io, pipeline::collective_read_slab and the
// pipeline's slab reader (every per-CPI read, failover included) use it.
#pragma once

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"

namespace pstap {

/// Process-wide count of I/O retry sleeps (with_retry bumps it). Looked up
/// once: registry references are stable.
inline obs::Counter& io_retry_counter() {
  static obs::Counter& counter = obs::Registry::global().counter("io.retries");
  return counter;
}

/// Raised when an I/O request exceeds its per-attempt timeout. Derives
/// IoError so retry layers treat it as a (transient) I/O failure.
class TimeoutError : public IoError {
 public:
  using IoError::IoError;
};

/// Backoff growth per attempt, and the cap on a single backoff sleep.
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr Seconds kMaxBackoff = 100e-3;

/// Retry configuration for an I/O consumer. The default (one attempt, no
/// timeout) preserves the pre-fault-layer behavior: fail fast.
struct RetryPolicy {
  int max_attempts = 1;            ///< total attempts, >= 1
  Seconds initial_backoff = 1e-3;  ///< sleep before the second attempt
  Seconds attempt_timeout = 0;     ///< per-attempt wait bound (0 = none)
};

/// True for errors that retrying cannot fix (a permanently failed server).
inline bool is_permanent(const std::exception& e) {
  auto* injected = dynamic_cast<const fault::InjectedError*>(&e);
  return injected != nullptr && injected->permanent();
}

/// Run `op` up to policy.max_attempts times, retrying on IoError with
/// exponential backoff. Permanent errors and non-I/O errors propagate
/// immediately; the last attempt's error propagates unconditionally. Each
/// retry is counted in io.retries and, when tracing, marked by a
/// "retry.attempt N" instant.
template <typename Op>
auto with_retry(const RetryPolicy& policy, const std::string& what,
                Op&& op) -> decltype(op()) {
  PSTAP_REQUIRE(policy.max_attempts >= 1, "retry: max_attempts must be >= 1");
  Seconds backoff = policy.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    try {
      return op();
    } catch (const IoError& e) {
      if (attempt >= policy.max_attempts || is_permanent(e)) {
        throw;
      }
    }
    io_retry_counter().add(1);
    if (obs::trace_enabled()) {
      obs::TraceRecorder::global().instant(
          "retry", "retry.attempt " + std::to_string(attempt + 1),
          obs::kLibraryPid, -1, what);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    backoff = std::min(kMaxBackoff, backoff * kBackoffMultiplier);
  }
}

}  // namespace pstap
