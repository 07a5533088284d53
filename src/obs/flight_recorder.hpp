// Black-box flight recorder: an always-on, fixed-size, per-thread ring of
// the most recent spans and instants, kept behind the ScopedSpan /
// TraceRecorder emit path so a crashed or aborted run can still say what it
// was doing.
//
// Unlike the trace recorder (unbounded buffers, mutex-guarded, off by
// default), the flight ring is bounded, lock-free and on by default:
// recording is a handful of relaxed atomic stores into a thread-local ring
// slot, and reading tolerates concurrent writers (a slot being rewritten is
// marked invalid and skipped; a torn slot decodes to odd numbers, never to
// invalid JSON). Rings are registered on a lock-free intrusive list and are
// never freed, so a post-mortem dump can walk them from a signal handler
// without taking any lock. Set PSTAP_FLIGHT=0 to switch the ring off.
//
// Crash artifacts: dump_crash_artifacts() writes the ring to
// `<base>.crash` and a best-effort Chrome trace to `<base>` itself, where
// `<base>` is the active TraceSession path (registered via set_crash_base)
// or, failing that, $PSTAP_TRACE. install_crash_handlers() arranges for the
// dump on fatal signals and std::terminate; pipeline::Supervisor calls
// dump_crash_artifacts() directly on watchdog abort.
//
// This library sits below common/ (it depends on nothing in pstap).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace pstap::obs {

namespace detail {
// Single relaxed load on the emit path (mirrors trace's g_trace_enabled).
extern std::atomic<bool> g_flight_enabled;
}  // namespace detail

/// True while the flight ring is recording (default: on).
inline bool flight_enabled() {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}

class FlightRecorder {
 public:
  /// Events retained per thread; older ones are overwritten in place.
  /// Sized so a ring (~18 KB) stays L2-resident and its one-time
  /// zero-fill stays off the profile — 256 events is hours of breadcrumbs
  /// at pipeline span rates, and a dump concatenates every thread's ring.
  static constexpr std::size_t kRingEvents = 256;
  static constexpr std::size_t kNameLen = 24;  ///< incl. terminator
  static constexpr std::size_t kCatLen = 12;   ///< incl. terminator

  enum class Kind : int { kNone = 0, kSpan = 1, kInstant = 2 };

  /// Decoded ring entry (snapshot / dump form).
  struct Event {
    Kind kind = Kind::kNone;
    std::string name;
    std::string cat;
    std::int32_t pid = 0;
    std::int64_t tid = 0;
    std::int64_t ts_ns = 0;
    std::int64_t dur_ns = 0;  ///< spans only
    std::int64_t cpi = -1;
  };

  /// The process-wide recorder (never destroyed, like TraceRecorder).
  static FlightRecorder& global();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Invalidate every recorded event (tests). Racy against concurrent
  /// writers by design: their in-flight event may survive.
  void clear();

  /// Record a completed span / an instant into this thread's ring.
  /// Lock-free; truncates `name` to kNameLen-1 and `cat` to kCatLen-1.
  void record_span(const char* cat, std::string_view name, std::int32_t pid,
                   std::int64_t ts_ns, std::int64_t dur_ns, std::int64_t cpi);
  void record_instant(const char* cat, std::string_view name, std::int32_t pid,
                      std::int64_t ts_ns, std::int64_t cpi);

  /// Decode every thread's ring, ts-ascending. Lock-free: safe to call from
  /// a signal handler's point of view (no ring locks; does allocate).
  std::vector<Event> snapshot() const;

  /// Ring dump document: {"schema_version":1,"reason":...,"events":[...]}.
  void write_ring_json(std::ostream& out, std::string_view reason) const;

  /// Register / read the post-mortem artifact base path (the active trace
  /// session's path). Stored in a fixed buffer so the crash path never
  /// touches the allocator to find out where to write.
  void set_crash_base(const std::filesystem::path& base);
  std::string crash_base() const;

 private:
  struct Slot {
    std::atomic<int> kind{0};
    std::atomic<std::int32_t> pid{0};
    std::atomic<std::int64_t> ts_ns{0};
    std::atomic<std::int64_t> dur_ns{0};
    std::atomic<std::int64_t> cpi{-1};
    std::array<std::atomic<char>, kNameLen> name{};
    std::array<std::atomic<char>, kCatLen> cat{};
  };

  struct Ring {
    std::atomic<std::uint64_t> head{0};  // next sequence number to write
    std::int64_t tid = 0;
    Ring* next = nullptr;  // intrusive lock-free registry list
    std::array<Slot, kRingEvents> slots{};
  };

  FlightRecorder() = default;

  Ring& local_ring();
  void record(Kind kind, const char* cat, std::string_view name,
              std::int32_t pid, std::int64_t ts_ns, std::int64_t dur_ns,
              std::int64_t cpi);

  std::atomic<Ring*> rings_{nullptr};
  std::atomic<std::int64_t> next_tid_{0};

  static constexpr std::size_t kPathLen = 3072;
  std::array<std::atomic<char>, kPathLen> crash_base_{};
};

/// Write the post-mortem artifacts for `reason`: the ring dump to
/// `<base>.crash` and a best-effort (truncated-but-valid) Chrome trace to
/// `<base>` when a trace session is live. Returns true when the ring dump
/// was written. Reentrancy-guarded; concurrent/recursive calls return false.
bool dump_crash_artifacts(std::string_view reason);

/// Install fatal-signal (SIGSEGV/SIGBUS/SIGABRT/SIGFPE/SIGILL) and
/// std::terminate hooks that call dump_crash_artifacts() and then re-raise.
/// Idempotent; installed automatically when a TraceSession activates.
void install_crash_handlers();

}  // namespace pstap::obs
