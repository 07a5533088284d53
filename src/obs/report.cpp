#include "obs/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/json.hpp"

namespace pstap::obs {

namespace detail {
std::atomic<bool> g_report_enabled{false};
}  // namespace detail

namespace {

std::atomic<bool> g_report_session_active{false};

void write_double(std::ostream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

void key(std::ostream& out, const char* name, bool& first) {
  if (!first) out << ",";
  first = false;
  out << "\"" << name << "\":";
}

void str_field(std::ostream& out, const char* name, std::string_view v,
               bool& first) {
  key(out, name, first);
  out << "\"";
  json_escape(out, v);
  out << "\"";
}

void num_field(std::ostream& out, const char* name, double v, bool& first) {
  key(out, name, first);
  write_double(out, v);
}

void int_field(std::ostream& out, const char* name, std::int64_t v,
               bool& first) {
  key(out, name, first);
  out << v;
}

void uint_field(std::ostream& out, const char* name, std::uint64_t v,
                bool& first) {
  key(out, name, first);
  out << v;
}

void bool_field(std::ostream& out, const char* name, bool v, bool& first) {
  key(out, name, first);
  out << (v ? "true" : "false");
}

void hist_field(std::ostream& out, const char* name, const Histogram& h,
                bool& first) {
  key(out, name, first);
  h.to_json(out);
}

/// Every scalar of a counter family, in its kCounters order.
template <class Stats>
void counter_fields(std::ostream& out, const Stats& stats, bool& first) {
  for (const CounterField<Stats>& c : Stats::kCounters) {
    std::visit(
        [&](auto member) {
          if constexpr (std::is_same_v<decltype(member), double Stats::*>) {
            num_field(out, c.name, stats.*member, first);
          } else {
            uint_field(out, c.name, stats.*member, first);
          }
        },
        c.member);
  }
}

}  // namespace

void RunReport::write_json(std::ostream& out) const {
  out << "{";
  bool f0 = true;
  str_field(out, "label", label, f0);
  str_field(out, "kind", kind, f0);

  key(out, "geometry", f0);
  {
    out << "{";
    bool f = true;
    uint_field(out, "channels", geometry.channels, f);
    uint_field(out, "pulses", geometry.pulses, f);
    uint_field(out, "ranges", geometry.ranges, f);
    uint_field(out, "beams", geometry.beams, f);
    uint_field(out, "doppler_bins", geometry.doppler_bins, f);
    uint_field(out, "cube_bytes", geometry.cube_bytes, f);
    out << "}";
  }

  key(out, "config", f0);
  {
    out << "{";
    bool f = true;
    str_field(out, "machine", config.machine, f);
    str_field(out, "io_strategy", config.io_strategy, f);
    bool_field(out, "combined_pc_cfar", config.combined_pc_cfar, f);
    uint_field(out, "stripe_factor", config.stripe_factor, f);
    str_field(out, "simd_backend", config.simd_backend, f);
    int_field(out, "cpis", config.cpis, f);
    int_field(out, "warmup", config.warmup, f);
    int_field(out, "total_nodes", config.total_nodes, f);
    bool_field(out, "pin_threads", config.pin_threads, f);
    int_field(out, "straggler_servers", config.straggler_servers, f);
    num_field(out, "straggler_slowdown", config.straggler_slowdown, f);
    out << "}";
  }

  key(out, "totals", f0);
  {
    out << "{";
    bool f = true;
    num_field(out, "throughput_cpis_per_s", totals.throughput_cpis_per_s, f);
    num_field(out, "latency_s", totals.latency_s, f);
    num_field(out, "wall_s", totals.wall_s, f);
    num_field(out, "cpu_s", totals.cpu_s, f);
    int_field(out, "dropped_cpis", totals.dropped_cpis, f);
    num_field(out, "setup_scene_s", totals.setup_scene_s, f);
    num_field(out, "setup_write_s", totals.setup_write_s, f);
    out << "}";
  }

  key(out, "tasks", f0);
  out << "[";
  bool first_task = true;
  for (const Task& t : tasks) {
    if (!first_task) out << ",";
    first_task = false;
    out << "\n{";
    bool f = true;
    str_field(out, "name", t.name, f);
    int_field(out, "nodes", t.nodes, f);
    key(out, "phases", f);
    out << "[";
    bool first_phase = true;
    for (const Phase& p : t.phases) {
      if (!first_phase) out << ",";
      first_phase = false;
      out << "{";
      bool pf = true;
      str_field(out, "name", p.name, pf);
      num_field(out, "mean_s", p.mean_s, pf);
      hist_field(out, "hist", p.hist, pf);
      out << "}";
    }
    out << "]}";
  }
  out << "]";

  if (io) {
    key(out, "io", f0);
    out << "{";
    bool f = true;
    int_field(out, "queue_depth_peak",
              static_cast<std::int64_t>(io->queue_depth.max()), f);
    counter_fields(out, *io, f);
    hist_field(out, "queue_depth", io->queue_depth, f);
    hist_field(out, "service_time", io->service_time, f);
    hist_field(out, "submit_latency", io->submit_latency, f);
    key(out, "servers", f);
    out << "[";
    for (std::size_t s = 0; s < io->server_service_time.size(); ++s) {
      if (s != 0) out << ",";
      out << "\n{\"id\":" << s << ",\"service_time\":";
      io->server_service_time[s].to_json(out);
      out << "}";
    }
    out << "]}";
  }

  if (recovery) {
    key(out, "recovery", f0);
    out << "{";
    bool f = true;
    counter_fields(out, *recovery, f);
    out << "}";
  }

  out << "}";
}

void write_report_document(std::ostream& out,
                           std::span<const RunReport> reports) {
  out << "{\"schema_version\":" << kReportSchemaVersion
      << ",\"generator\":\"pstap\",\"reports\":[";
  bool first = true;
  for (const RunReport& r : reports) {
    if (!first) out << ",";
    first = false;
    out << "\n";
    r.write_json(out);
  }
  out << "\n]}\n";
}

void write_report_document(const std::filesystem::path& path,
                           std::span<const RunReport> reports) {
  // Render in memory, write in one pass (same crash-safety rule as the
  // trace exporter): the file is either absent or complete JSON.
  std::ostringstream doc;
  write_report_document(doc, reports);
  std::ofstream out(path, std::ios::trunc);
  out << doc.str();
}

ReportCollector& ReportCollector::global() {
  static ReportCollector* collector = new ReportCollector();  // never destroyed
  return *collector;
}

void ReportCollector::add(RunReport report) {
  std::lock_guard lock(mu_);
  reports_.push_back(std::move(report));
}

std::vector<RunReport> ReportCollector::snapshot() const {
  std::lock_guard lock(mu_);
  return reports_;
}

void ReportCollector::clear() {
  std::lock_guard lock(mu_);
  reports_.clear();
}

ReportSession::ReportSession(std::filesystem::path path)
    : path_(std::move(path)) {
  if (path_.empty()) {
    if (const char* env = std::getenv("PSTAP_REPORT");
        env != nullptr && *env) {
      path_ = env;
    }
  }
  if (path_.empty()) return;
  bool expected = false;
  if (!g_report_session_active.compare_exchange_strong(expected, true)) {
    // An outer session owns the document; contribute to its collection.
    path_.clear();
    return;
  }
  active_ = true;
  ReportCollector::global().clear();
  detail::g_report_enabled.store(true, std::memory_order_relaxed);
}

ReportSession::~ReportSession() {
  if (!active_) return;
  detail::g_report_enabled.store(false, std::memory_order_relaxed);
  const std::vector<RunReport> reports = ReportCollector::global().snapshot();
  write_report_document(path_, reports);
  g_report_session_active.store(false);
}

}  // namespace pstap::obs
