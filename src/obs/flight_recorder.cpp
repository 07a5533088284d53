#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace pstap::obs {

namespace detail {
namespace {
bool flight_default() {
  const char* env = std::getenv("PSTAP_FLIGHT");
  return env == nullptr || std::string_view(env) != "0";
}
}  // namespace
std::atomic<bool> g_flight_enabled{flight_default()};
}  // namespace detail

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed:
  return *recorder;  // signal handlers may fire during static teardown
}

FlightRecorder::Ring& FlightRecorder::local_ring() {
  // One ring per (process, thread), registered on a lock-free list and never
  // freed: a post-mortem dump must be able to walk rings of threads that
  // have already exited, without taking a lock a dying thread might hold.
  thread_local Ring* t_ring = nullptr;
  if (t_ring == nullptr) {
    Ring* ring = new Ring();
    ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    Ring* head = rings_.load(std::memory_order_acquire);
    do {
      ring->next = head;
    } while (!rings_.compare_exchange_weak(head, ring,
                                           std::memory_order_release,
                                           std::memory_order_acquire));
    t_ring = ring;
  }
  return *t_ring;
}

void FlightRecorder::record(Kind kind, const char* cat, std::string_view name,
                            std::int32_t pid, std::int64_t ts_ns,
                            std::int64_t dur_ns, std::int64_t cpi) {
  Ring& ring = local_ring();
  const std::uint64_t seq = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[seq % kRingEvents];

  // Invalidate while rewriting so a concurrent dump skips the slot instead
  // of decoding a half-old, half-new event. All stores are relaxed except
  // the final kind (release), which publishes the slot.
  slot.kind.store(0, std::memory_order_relaxed);
  slot.pid.store(pid, std::memory_order_relaxed);
  slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.cpi.store(cpi, std::memory_order_relaxed);
  const std::size_t n = std::min(name.size(), kNameLen - 1);
  for (std::size_t i = 0; i < n; ++i) {
    slot.name[i].store(name[i], std::memory_order_relaxed);
  }
  slot.name[n].store('\0', std::memory_order_relaxed);
  const std::size_t m =
      std::min(cat == nullptr ? 0 : std::string_view(cat).size(), kCatLen - 1);
  for (std::size_t i = 0; i < m; ++i) {
    slot.cat[i].store(cat[i], std::memory_order_relaxed);
  }
  slot.cat[m].store('\0', std::memory_order_relaxed);
  slot.kind.store(static_cast<int>(kind), std::memory_order_release);
  ring.head.store(seq + 1, std::memory_order_release);
}

void FlightRecorder::record_span(const char* cat, std::string_view name,
                                 std::int32_t pid, std::int64_t ts_ns,
                                 std::int64_t dur_ns, std::int64_t cpi) {
  record(Kind::kSpan, cat, name, pid, ts_ns, dur_ns, cpi);
}

void FlightRecorder::record_instant(const char* cat, std::string_view name,
                                    std::int32_t pid, std::int64_t ts_ns,
                                    std::int64_t cpi) {
  record(Kind::kInstant, cat, name, pid, ts_ns, 0, cpi);
}

void FlightRecorder::clear() {
  for (Ring* ring = rings_.load(std::memory_order_acquire); ring != nullptr;
       ring = ring->next) {
    for (Slot& slot : ring->slots) {
      slot.kind.store(0, std::memory_order_relaxed);
    }
    ring->head.store(0, std::memory_order_relaxed);
  }
}

std::vector<FlightRecorder::Event> FlightRecorder::snapshot() const {
  std::vector<Event> out;
  for (Ring* ring = rings_.load(std::memory_order_acquire); ring != nullptr;
       ring = ring->next) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t lo = head > kRingEvents ? head - kRingEvents : 0;
    for (std::uint64_t seq = lo; seq < head; ++seq) {
      const Slot& slot = ring->slots[seq % kRingEvents];
      const int kind = slot.kind.load(std::memory_order_acquire);
      if (kind != static_cast<int>(Kind::kSpan) &&
          kind != static_cast<int>(Kind::kInstant)) {
        continue;  // empty, or mid-rewrite by its owner thread
      }
      Event e;
      e.kind = static_cast<Kind>(kind);
      e.pid = slot.pid.load(std::memory_order_relaxed);
      e.tid = ring->tid;
      e.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      e.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
      e.cpi = slot.cpi.load(std::memory_order_relaxed);
      e.name.reserve(kNameLen);
      for (std::size_t i = 0; i < kNameLen; ++i) {
        const char c = slot.name[i].load(std::memory_order_relaxed);
        if (c == '\0') break;
        e.name.push_back(c);
      }
      e.cat.reserve(kCatLen);
      for (std::size_t i = 0; i < kCatLen; ++i) {
        const char c = slot.cat[i].load(std::memory_order_relaxed);
        if (c == '\0') break;
        e.cat.push_back(c);
      }
      out.push_back(std::move(e));
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.ts_ns < b.ts_ns;
  });
  return out;
}

void FlightRecorder::write_ring_json(std::ostream& out,
                                     std::string_view reason) const {
  const std::vector<Event> events = snapshot();
  out << "{\"schema_version\":1,\"kind\":\"flight_ring\",\"reason\":\"";
  json_escape(out, reason);
  out << "\",\"events\":[";
  bool first = true;
  for (const Event& e : events) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"kind\":\""
        << (e.kind == Kind::kSpan ? "span" : "instant") << "\",\"name\":\"";
    json_escape(out, e.name);
    out << "\",\"cat\":\"";
    json_escape(out, e.cat);
    out << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
        << ",\"ts_ns\":" << e.ts_ns;
    if (e.kind == Kind::kSpan) out << ",\"dur_ns\":" << e.dur_ns;
    if (e.cpi >= 0) out << ",\"cpi\":" << e.cpi;
    out << "}";
  }
  out << "\n]}\n";
}

void FlightRecorder::set_crash_base(const std::filesystem::path& base) {
  const std::string s = base.string();
  const std::size_t n = std::min(s.size(), kPathLen - 1);
  for (std::size_t i = 0; i < n; ++i) {
    crash_base_[i].store(s[i], std::memory_order_relaxed);
  }
  crash_base_[n].store('\0', std::memory_order_release);
}

std::string FlightRecorder::crash_base() const {
  std::string s;
  s.reserve(64);
  for (std::size_t i = 0; i < kPathLen; ++i) {
    const char c = crash_base_[i].load(std::memory_order_acquire);
    if (c == '\0') break;
    s.push_back(c);
  }
  return s;
}

bool dump_crash_artifacts(std::string_view reason) {
  // One dump at a time; a crash inside the dump (signal handlers are not
  // async-signal-safe here — accepted for a best-effort post-mortem) falls
  // through to the default handler instead of recursing.
  static std::atomic<bool> in_progress{false};
  if (in_progress.exchange(true, std::memory_order_acq_rel)) return false;

  std::string base = FlightRecorder::global().crash_base();
  if (base.empty()) {
    if (const char* env = std::getenv("PSTAP_TRACE"); env != nullptr && *env) {
      base = env;
    }
  }
  bool wrote = false;
  if (!base.empty()) {
    // Ring dump first — it is the lock-free artifact and must not be held
    // up by whatever state the trace recorder's mutexes are in.
    {
      std::ostringstream doc;
      FlightRecorder::global().write_ring_json(doc, reason);
      std::ofstream out(base + ".crash", std::ios::trunc);
      out << doc.str();
      out.flush();
      wrote = out.good();
    }
    // Best-effort Chrome trace: only while a session is live (never clobber
    // a finished export), and skipping any thread buffer whose lock is held
    // mid-append. The document is built in memory and written in one pass,
    // so the file on disk is always complete JSON.
    if (trace_enabled()) {
      TraceRecorder::global().write_chrome_json_best_effort(base);
    }
  }
  in_progress.store(false, std::memory_order_release);
  return wrote;
}

namespace {

std::terminate_handler g_prev_terminate = nullptr;

extern "C" void pstap_fatal_signal_handler(int sig) {
  char reason[64];
  std::snprintf(reason, sizeof reason, "fatal signal %d", sig);
  dump_crash_artifacts(reason);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

[[noreturn]] void pstap_terminate_handler() {
  dump_crash_artifacts("std::terminate");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

void install_crash_handlers() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true, std::memory_order_acq_rel)) return;
  for (const int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    std::signal(sig, &pstap_fatal_signal_handler);
  }
  g_prev_terminate = std::set_terminate(&pstap_terminate_handler);
}

}  // namespace pstap::obs
