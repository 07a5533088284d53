#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.hpp"

namespace pstap::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

// Set while a TraceSession owns the recorder, so nested sessions (a runner
// inside trace_explorer) stay passive instead of stealing the export.
std::atomic<bool> g_session_active{false};

/// Chrome's "ts" field is microseconds; keep nanosecond precision with
/// three decimals.
void write_us(std::ostream& out, std::int64_t ns) {
  out << ns / 1000;
  const std::int64_t frac = ns % 1000 < 0 ? -(ns % 1000) : ns % 1000;
  char buf[8];
  std::snprintf(buf, sizeof buf, ".%03lld", static_cast<long long>(frac));
  out << buf;
}

}  // namespace

std::int64_t trace_now_ns() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock::now().time_since_epoch())
      .count();
}

struct TraceRecorder::ThreadBuffer {
  std::mutex mu;
  std::int64_t tid = 0;
  std::vector<TraceEvent> events;
};

TraceRecorder::TraceRecorder() = default;
TraceRecorder::~TraceRecorder() = default;

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed:
  return *recorder;  // emitters may outlive static teardown order
}

void TraceRecorder::enable() {
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void TraceRecorder::disable() {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard buf_lock(buf->mu);
    buf->events.clear();
  }
  // meta_ (process_name labels) intentionally survives: components register
  // labels at construction, possibly before the session that exports them.
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  // One buffer per (recorder, thread); the registry keeps it alive after
  // the thread exits so short-lived rank threads don't lose their events.
  thread_local std::shared_ptr<ThreadBuffer> t_buffer;
  if (!t_buffer) {
    t_buffer = std::make_shared<ThreadBuffer>();
    t_buffer->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(mu_);
    buffers_.push_back(t_buffer);
  }
  return *t_buffer;
}

void TraceRecorder::append(TraceEvent event) {
  ThreadBuffer& buf = local_buffer();
  if (event.tid < 0) event.tid = buf.tid;
  std::lock_guard lock(buf.mu);
  buf.events.push_back(std::move(event));
}

void TraceRecorder::set_process_name(std::int32_t pid, std::string name) {
  std::lock_guard lock(mu_);
  for (TraceEvent& e : meta_) {
    if (e.pid == pid) {
      e.name = std::move(name);
      return;
    }
  }
  TraceEvent e;
  e.kind = TraceEvent::Kind::kMeta;
  e.name = std::move(name);
  e.pid = pid;
  meta_.push_back(std::move(e));
}

void TraceRecorder::complete(const char* cat, std::string_view name,
                             std::int32_t pid, std::int64_t ts_ns,
                             std::int64_t dur_ns, std::int64_t cpi,
                             std::string_view detail, std::int64_t tid) {
  if (flight_enabled()) {
    FlightRecorder::global().record_span(cat, name, pid, ts_ns, dur_ns, cpi);
  }
  if (!trace_enabled()) return;
  TraceEvent e;
  e.kind = TraceEvent::Kind::kComplete;
  e.name = std::string(name);
  e.cat = cat;
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.cpi = cpi;
  e.detail = std::string(detail);
  append(std::move(e));
}

void TraceRecorder::instant(const char* cat, std::string_view name,
                            std::int32_t pid, std::int64_t cpi,
                            std::string_view detail) {
  if (!trace_enabled() && !flight_enabled()) return;
  instant_at(cat, name, pid, trace_now_ns(), cpi, detail);
}

void TraceRecorder::instant_at(const char* cat, std::string_view name,
                               std::int32_t pid, std::int64_t ts_ns,
                               std::int64_t cpi, std::string_view detail) {
  if (flight_enabled()) {
    FlightRecorder::global().record_instant(cat, name, pid, ts_ns, cpi);
  }
  if (!trace_enabled()) return;
  TraceEvent e;
  e.kind = TraceEvent::Kind::kInstant;
  e.name = std::string(name);
  e.cat = cat;
  e.pid = pid;
  e.tid = -1;
  e.ts_ns = ts_ns;
  e.cpi = cpi;
  e.detail = std::string(detail);
  append(std::move(e));
}

void TraceRecorder::counter(const char* cat, std::string_view name,
                            std::int32_t pid, double value) {
  if (!trace_enabled()) return;
  TraceEvent e;
  e.kind = TraceEvent::Kind::kCounter;
  e.name = std::string(name);
  e.cat = cat;
  e.pid = pid;
  e.tid = -1;
  e.ts_ns = trace_now_ns();
  e.value = value;
  append(std::move(e));
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard lock(mu_);
    all = meta_;
    for (const auto& buf : buffers_) {
      std::lock_guard buf_lock(buf->mu);
      all.insert(all.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return all;
}

std::vector<TraceEvent> TraceRecorder::snapshot_best_effort() const {
  // Crash path: a wedged thread may hold its buffer lock (or mu_) forever,
  // so never wait — a partially-collected trace beats a hung dump. Events
  // are only ever appended whole under the buffer lock, so every buffer we
  // do win contains only fully-written events.
  std::vector<TraceEvent> all;
  {
    std::unique_lock lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) return all;
    all = meta_;
    for (const auto& buf : buffers_) {
      std::unique_lock buf_lock(buf->mu, std::try_to_lock);
      if (!buf_lock.owns_lock()) continue;
      all.insert(all.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return all;
}

namespace {

void render_chrome_json(std::ostream& out, const std::vector<TraceEvent>& events) {
  // Rebase wall-clock timestamps so the trace starts near t=0. Simulated
  // producers already count from zero; rebasing by the global minimum keeps
  // both kinds sensible (a trace is one or the other in practice).
  std::int64_t base = std::numeric_limits<std::int64_t>::max();
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEvent::Kind::kMeta) base = std::min(base, e.ts_ns);
  }
  if (base == std::numeric_limits<std::int64_t>::max()) base = 0;

  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out << ",";
    first = false;
    out << "\n{";
    if (e.kind == TraceEvent::Kind::kMeta) {
      out << "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << e.pid
          << ",\"tid\":0,\"args\":{\"name\":\"";
      json_escape(out, e.name);
      out << "\"}}";
      continue;
    }
    out << "\"name\":\"";
    json_escape(out, e.name);
    out << "\",\"cat\":\"";
    json_escape(out, e.cat);
    out << "\",\"ph\":\"";
    switch (e.kind) {
      case TraceEvent::Kind::kComplete: out << 'X'; break;
      case TraceEvent::Kind::kInstant: out << 'i'; break;
      case TraceEvent::Kind::kCounter: out << 'C'; break;
      case TraceEvent::Kind::kMeta: break;  // handled above
    }
    out << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid << ",\"ts\":";
    write_us(out, e.ts_ns - base);
    if (e.kind == TraceEvent::Kind::kComplete) {
      out << ",\"dur\":";
      write_us(out, e.dur_ns);
    }
    if (e.kind == TraceEvent::Kind::kInstant) out << ",\"s\":\"t\"";
    out << ",\"args\":{";
    bool first_arg = true;
    if (e.kind == TraceEvent::Kind::kCounter) {
      out << "\"value\":" << e.value;
      first_arg = false;
    }
    if (e.cpi >= 0) {
      if (!first_arg) out << ",";
      out << "\"cpi\":" << e.cpi;
      first_arg = false;
    }
    if (!e.detail.empty()) {
      if (!first_arg) out << ",";
      out << "\"detail\":\"";
      json_escape(out, e.detail);
      out << "\"";
    }
    out << "}}";
  }
  out << "\n]}\n";
}

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& out) const {
  render_chrome_json(out, snapshot());
}

void TraceRecorder::write_chrome_json(const std::filesystem::path& path) const {
  // Render in memory, write in one pass: the file is either absent or a
  // complete document, never cut off mid-event by a crash during export.
  std::ostringstream doc;
  render_chrome_json(doc, snapshot());
  std::ofstream out(path, std::ios::trunc);
  out << doc.str();
}

void TraceRecorder::write_chrome_json_best_effort(
    const std::filesystem::path& path) const {
  std::ostringstream doc;
  render_chrome_json(doc, snapshot_best_effort());
  std::ofstream out(path, std::ios::trunc);
  out << doc.str();
}

TraceSession::TraceSession(std::filesystem::path path) : path_(std::move(path)) {
  if (path_.empty()) {
    if (const char* env = std::getenv("PSTAP_TRACE"); env != nullptr && *env) {
      path_ = env;
    }
  }
  if (path_.empty()) return;
  bool expected = false;
  if (!g_session_active.compare_exchange_strong(expected, true)) {
    // An outer session owns the recorder; record into its timeline.
    path_.clear();
    return;
  }
  active_ = true;
  TraceRecorder::global().clear();
  TraceRecorder::global().enable();
  // Post-mortem wiring: if this run dies (fatal signal, std::terminate,
  // supervisor abort) the dump knows where to put the artifacts.
  FlightRecorder::global().set_crash_base(path_);
  install_crash_handlers();
}

TraceSession::~TraceSession() {
  if (!active_) return;
  TraceRecorder::global().disable();
  TraceRecorder::global().write_chrome_json(path_);
  // Deregister so a later crash can't clobber this finished export.
  FlightRecorder::global().set_crash_base({});
  g_session_active.store(false);
}

}  // namespace pstap::obs
