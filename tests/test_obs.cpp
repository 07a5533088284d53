// Tests for the observability layer: histogram bucket/percentile/merge
// math and JSON round-trips, Chrome trace JSON export (well-formedness and
// span nesting under concurrent emitters), the one-load disabled fast path
// (no allocations), the always-on flight ring (wraparound, crash-dump on
// supervisor abort), JSON string escaping in every writer, RunReport
// export (schema round-trip, Table-3 ordering from report data alone,
// io/recovery counters equal to the run's own, report_diff.py attribution
// and counter validation), IoEngine queue-depth distributions, and the
// functional runner's PSTAP_TRACE acceptance: spans for every task phase
// of every CPI plus an instant event for every injected fault.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "pfs/striped_file_system.hpp"
#include "pipeline/task_spec.hpp"
#include "pipeline/thread_runner.hpp"
#include "sim/machine.hpp"
#include "sim/sim_runner.hpp"

// ------------------------------------------------- allocation counting --
// Global operator new instrumented with a thread-local counter so the
// disabled-tracing fast path can be proven allocation-free. This test
// binary only; counts this thread's allocations, so other threads (none
// during that test) cannot perturb it.

namespace {
thread_local std::int64_t t_alloc_count = 0;
}  // namespace

// GCC pairs call sites against the replacement operators and warns that
// malloc-backed new is freed with free(); the pairing here is exactly
// new->malloc / delete->free, so the warning is a false positive.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Nothrow variants must be replaced too: stable_sort's temporary buffer
// allocates nothrow, and mixing the runtime's nothrow new with the
// malloc-backed delete below trips ASan's alloc-dealloc-mismatch check.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_alloc_count;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pstap {
namespace {

namespace fsys = std::filesystem;

// ------------------------------------------------------ mini JSON parser --
// Small recursive-descent parser: enough JSON to load a Chrome trace and
// fail loudly on malformed output. Throws std::runtime_error on any error.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;
  std::vector<std::string> keys;  ///< object keys in document order

  const Json& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.contains(key); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse() {
    Json v = value();
    ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) +
                             ": " + what);
  }
  void ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json value() {
    ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (consume("true")) {
      Json v;
      v.type = Json::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume("false")) {
      Json v;
      v.type = Json::Type::kBool;
      return v;
    }
    if (consume("null")) return {};
    return number();
  }

  Json object() {
    Json v;
    v.type = Json::Type::kObject;
    expect('{');
    ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      ws();
      Json key = string();
      ws();
      expect(':');
      v.keys.push_back(key.str);
      v.object.emplace(std::move(key.str), value());
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    Json v;
    v.type = Json::Type::kArray;
    expect('[');
    ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json string() {
    Json v;
    v.type = Json::Type::kString;
    expect('"');
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.str.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': v.str.push_back('"'); break;
        case '\\': v.str.push_back('\\'); break;
        case '/': v.str.push_back('/'); break;
        case 'n': v.str.push_back('\n'); break;
        case 't': v.str.push_back('\t'); break;
        case 'r': v.str.push_back('\r'); break;
        case 'b': v.str.push_back('\b'); break;
        case 'f': v.str.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          const unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(), nullptr, 16));
          pos_ += 4;
          // Control characters only in our exporter; keep the low byte.
          v.str.push_back(static_cast<char>(code & 0x7f));
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Json v;
    v.type = Json::Type::kNumber;
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Json parse_trace_file(const fsys::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return JsonParser(buf.str()).parse();
}

// ---------------------------------------------------------- Histogram --

TEST(Histogram, BucketIndexMatchesBounds) {
  for (const std::size_t i : {0u, 1u, 5u, 17u, 63u, 126u}) {
    const double lo = obs::Histogram::bucket_lower_bound(i);
    const double hi = obs::Histogram::bucket_lower_bound(i + 1);
    EXPECT_LT(lo, hi);
    // A value strictly inside the bucket maps back to the bucket.
    EXPECT_EQ(obs::Histogram::bucket_index(std::sqrt(lo * hi)), i) << i;
  }
  // Values at/below the floor clamp into bucket 0; huge values into the top.
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(-3.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1e300), obs::Histogram::kBuckets - 1);
}

TEST(Histogram, CountSumExtremaAndQuantiles) {
  obs::Histogram h;
  double sum = 0;
  for (int i = 1; i <= 1000; ++i) {
    h.record(i * 1e-3);  // 1ms .. 1000ms
    sum += i * 1e-3;
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.sum(), sum, 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  // Bucket resolution is sqrt(2): estimates within that factor of truth.
  const double kRatio = std::sqrt(2.0);
  EXPECT_GE(h.p50(), 0.5 / kRatio);
  EXPECT_LE(h.p50(), 0.5 * kRatio);
  EXPECT_GE(h.p95(), 0.95 / kRatio);
  EXPECT_LE(h.p95(), 0.95 * kRatio);
  EXPECT_GE(h.p99(), 0.99 / kRatio);
  EXPECT_LE(h.p99(), 1.0);  // clamped to the observed max
  EXPECT_GE(h.quantile(1.0), h.quantile(0.0));
}

TEST(Histogram, MergeIsLossless) {
  obs::Histogram a, b, all;
  for (int i = 1; i <= 500; ++i) {
    a.record(i * 1e-6);
    all.record(i * 1e-6);
  }
  for (int i = 1; i <= 300; ++i) {
    b.record(i * 1e-2);
    all.record(i * 1e-2);
  }
  obs::Histogram merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_NEAR(merged.sum(), all.sum(), 1e-9);
  EXPECT_DOUBLE_EQ(merged.min(), all.min());
  EXPECT_DOUBLE_EQ(merged.max(), all.max());
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_EQ(merged.bucket_count(i), all.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(merged.p95(), all.p95());
  // Copy construction snapshots.
  const obs::Histogram copy = merged;
  EXPECT_EQ(copy.count(), merged.count());
  EXPECT_DOUBLE_EQ(copy.p50(), merged.p50());
}

TEST(Histogram, EmptyIsAllZero) {
  const obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(Registry, ReferencesAreStableAndReportRenders) {
  auto& c = obs::Registry::global().counter("test.registry.counter");
  auto& c2 = obs::Registry::global().counter("test.registry.counter");
  EXPECT_EQ(&c, &c2);
  c.add(3);
  auto& g = obs::Registry::global().gauge("test.registry.gauge");
  g.add(5);
  g.sub(2);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.peak(), 5);
  obs::Registry::global().histogram("test.registry.hist").record(1.0);
  const std::string report = obs::Registry::global().report();
  EXPECT_NE(report.find("test.registry.counter"), std::string::npos);
  EXPECT_NE(report.find("test.registry.hist"), std::string::npos);
}

// -------------------------------------------------------------- tracing --

TEST(Trace, ChromeJsonWellFormedAndSpansNestUnderConcurrency) {
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
  constexpr int kThreads = 4;
  constexpr int kOuter = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kOuter; ++i) {
        obs::ScopedSpan outer("test", "outer", /*pid=*/t, nullptr, i);
        {
          obs::ScopedSpan inner("test", "inner", t, nullptr, i);
          obs::TraceRecorder::global().instant("test", "mark", t, i);
        }
        obs::ScopedSpan inner2("test", "inner2", t, nullptr, i);
      }
    });
  }
  for (auto& th : threads) th.join();
  rec.disable();

  std::ostringstream out;
  rec.write_chrome_json(out);
  const Json doc = JsonParser(out.str()).parse();  // throws if malformed
  const auto& events = doc.at("traceEvents").array;
  EXPECT_GE(events.size(), static_cast<std::size_t>(kThreads * kOuter * 3));

  // Spans grouped per (pid, tid) must nest: sorted by ts, each span either
  // starts after the previous ends or closes before it does.
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>> spans;
  int outers = 0;
  for (const Json& e : events) {
    const std::string ph = e.at("ph").str;
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "C" || ph == "M") << ph;
    if (ph != "X") continue;
    const double ts = e.at("ts").number;
    const double dur = e.at("dur").number;
    EXPECT_GE(dur, 0.0);
    spans[{static_cast<int>(e.at("pid").number),
           static_cast<int>(e.at("tid").number)}]
        .emplace_back(ts, ts + dur);
    if (e.at("name").str == "outer") ++outers;
  }
  EXPECT_EQ(outers, kThreads * kOuter);
  EXPECT_EQ(spans.size(), static_cast<std::size_t>(kThreads));
  const double kEps = 0.002;  // exporter rounds to 1/1000 us
  for (const auto& [key, list] : spans) {
    auto sorted = list;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::pair<double, double>> stack;
    for (const auto& [lo, hi] : sorted) {
      while (!stack.empty() && stack.back().second <= lo + kEps) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(hi, stack.back().second + kEps)
            << "span [" << lo << "," << hi << ") straddles its parent";
      }
      stack.emplace_back(lo, hi);
    }
  }
}

TEST(Trace, DisabledEmitPathDoesNotAllocate) {
  ASSERT_FALSE(obs::trace_enabled());
  auto& rec = obs::TraceRecorder::global();
  // Warm up any lazily-created state, then measure.
  rec.instant("test", "warm", 1);
  const std::int64_t before = t_alloc_count;
  for (int i = 0; i < 256; ++i) {
    rec.instant("test", "x", 1);
    rec.counter("test", "c", 1, 2.0);
    rec.complete("test", "s", 1, 0, 10);
    obs::ScopedSpan span("test", "s", 1);
  }
  EXPECT_EQ(t_alloc_count, before) << "disabled tracing must not allocate";
}

TEST(Trace, SessionHonorsEnvAndNestedSessionsArePassive) {
  const fsys::path path =
      fsys::temp_directory_path() /
      ("pstap_obs_env_" + std::to_string(::getpid()) + ".trace.json");
  ::setenv("PSTAP_TRACE", path.string().c_str(), 1);
  {
    obs::TraceSession session;  // picks the path up from the environment
    EXPECT_TRUE(session.active());
    EXPECT_TRUE(obs::trace_enabled());
    {
      obs::TraceSession nested;  // an active outer session owns the trace
      EXPECT_FALSE(nested.active());
    }
    EXPECT_TRUE(obs::trace_enabled()) << "nested session must not disable";
    obs::TraceRecorder::global().instant("test", "env", 1);
  }
  ::unsetenv("PSTAP_TRACE");
  EXPECT_FALSE(obs::trace_enabled());
  const Json doc = parse_trace_file(path);
  bool found = false;
  for (const Json& e : doc.at("traceEvents").array) {
    found |= e.at("name").str == "env";
  }
  EXPECT_TRUE(found);
  fsys::remove(path);
}

TEST(Trace, SessionWithoutPathOrEnvIsPassive) {
  ::unsetenv("PSTAP_TRACE");
  obs::TraceSession session;
  EXPECT_FALSE(session.active());
  EXPECT_FALSE(obs::trace_enabled());
}

// ----------------------------------------------------- IoEngine metrics --

struct DepthProbe {
  double p95 = 0;
  double max = 0;
  std::uint64_t samples = 0;
};

DepthProbe probe_queue_depth(std::size_t stripe_factor) {
  const fsys::path root =
      fsys::temp_directory_path() /
      ("pstap_obs_depth_" + std::to_string(::getpid()) + "_sf" +
       std::to_string(stripe_factor));
  fsys::remove_all(root);
  pfs::PfsConfig cfg = pfs::paragon_pfs(stripe_factor);
  cfg.server_latency = 200e-6;  // finite service so submits pile up
  DepthProbe probe;
  {
    pfs::StripedFileSystem fs(root, cfg);
    constexpr std::size_t kChunks = 64;
    std::vector<std::byte> data(kChunks * cfg.stripe_unit);
    fs.write_file("depth", data);
    pfs::StripedFile file = fs.open("depth");
    for (int rep = 0; rep < 2; ++rep) file.read(0, data);
    probe.p95 = fs.engine().queue_depth().quantile(0.95);
    probe.max = fs.engine().queue_depth().max();
    probe.samples = fs.engine().queue_depth().count();
    EXPECT_GT(fs.engine().service_time().count(), 0u);
    EXPECT_GT(fs.engine().submit_latency().count(), 0u);
  }
  fsys::remove_all(root);
  return probe;
}

TEST(IoEngineObs, SmallStripeFactorDeepensQueues) {
  // The same 64-chunk logical reads against 4 vs 16 stripe directories:
  // fewer queues must mean deeper queues — the paper's funnel, observed in
  // the engine's own distribution rather than inferred from throughput.
  const DepthProbe sf4 = probe_queue_depth(4);
  const DepthProbe sf16 = probe_queue_depth(16);
  EXPECT_EQ(sf4.samples, sf16.samples) << "identical submit pattern expected";
  EXPECT_GT(sf4.max, sf16.max);
  EXPECT_GT(sf4.p95, sf16.p95);
}

// --------------------------------------- functional runner acceptance --

TEST(ThreadRunnerTrace, SpansForEveryPhaseAndInstantsForEveryFault) {
  const fsys::path root =
      fsys::temp_directory_path() /
      ("pstap_obs_runner_" + std::to_string(::getpid()));
  const fsys::path trace_path = root / "pipeline.trace.json";
  fsys::remove_all(root);
  fsys::create_directories(root);

  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {2, 1, 1, 1, 1, 1, 1});
  pipeline::RunOptions opt;
  opt.cpis = 3;
  opt.warmup = 1;
  opt.seed = 11;
  opt.fs_root = root / "fs";
  opt.io_retry.max_attempts = 10;
  opt.io_retry.initial_backoff = 1e-4;

  // Arm faults on the stage boundaries and the server read path; every
  // decision that fires must surface as an instant event in the trace.
  auto plan = std::make_shared<fault::FaultPlan>(5);
  plan->arm_delay("pipeline.stage", 0.3, 1e-4, 3e-4);
  plan->arm_transient_error("pfs.server.read", 0.05);
  opt.fault_plan = plan;

  // Exercise the environment-variable path the acceptance criteria name.
  ::setenv("PSTAP_TRACE", trace_path.string().c_str(), 1);
  pipeline::ThreadRunner runner(spec, opt);
  const pipeline::RunResult result = runner.run();
  ::unsetenv("PSTAP_TRACE");

  EXPECT_EQ(result.metrics.dropped_cpis, 0);
  const Json doc = parse_trace_file(trace_path);  // throws if malformed

  // (rank, cpi) -> set of phase names seen; plus fault instant count.
  std::map<std::pair<int, int>, std::set<std::string>> phases;
  std::uint64_t fault_instants = 0;
  for (const Json& e : doc.at("traceEvents").array) {
    const std::string ph = e.at("ph").str;
    if (ph == "i" && e.at("cat").str == "fault") ++fault_instants;
    if (ph != "X" || e.at("cat").str != "pipeline") continue;
    const std::string& name = e.at("name").str;
    if (name != "receive" && name != "compute" && name != "send") continue;
    ASSERT_TRUE(e.at("args").has("cpi")) << name;
    phases[{static_cast<int>(e.at("pid").number),
            static_cast<int>(e.at("args").at("cpi").number)}]
        .insert(name);
  }

  const int total = spec.total_nodes();
  for (int rank = 0; rank < total; ++rank) {
    for (int cpi = 0; cpi < opt.cpis; ++cpi) {
      const auto it = phases.find({rank, cpi});
      ASSERT_NE(it, phases.end()) << "rank " << rank << " cpi " << cpi;
      EXPECT_EQ(it->second.size(), 3u)
          << "rank " << rank << " cpi " << cpi << " missing a phase span";
    }
  }

  const std::uint64_t injected = plan->injected_delays() +
                                 plan->injected_errors() +
                                 plan->injected_partials();
  EXPECT_GT(injected, 0u) << "fault plan never fired; weaken probabilities?";
  EXPECT_EQ(fault_instants, injected);

  // Phase histograms surfaced per task and the run's I/O stats block.
  for (const auto& t : result.metrics.tasks) {
    const auto timed =
        static_cast<std::uint64_t>((opt.cpis - opt.warmup) * t.nodes);
    EXPECT_EQ(t.receive_hist.count(), timed) << pipeline::task_name(t.kind);
    EXPECT_EQ(t.compute_hist.count(), timed) << pipeline::task_name(t.kind);
    EXPECT_EQ(t.send_hist.count(), timed) << pipeline::task_name(t.kind);
  }
  EXPECT_GT(result.metrics.io.queue_depth.count(), 0u);
  EXPECT_GT(result.metrics.io.service_time.count(), 0u);
  EXPECT_GT(result.metrics.io.bytes_serviced, 0u);
  EXPECT_EQ(result.metrics.io.injected_delays, plan->injected_delays());
  EXPECT_EQ(result.metrics.io.injected_errors, plan->injected_errors());

  fsys::remove_all(root);
}

// --------------------------------------------------------- flight ring --

TEST(FlightRing, WraparoundKeepsNewestEventsAndTruncatesNames) {
  auto& fr = obs::FlightRecorder::global();
  fr.clear();
  constexpr std::int64_t kTotal =
      static_cast<std::int64_t>(obs::FlightRecorder::kRingEvents) + 500;
  const std::string long_name(obs::FlightRecorder::kNameLen + 16, 'n');
  for (std::int64_t i = 0; i < kTotal; ++i) {
    fr.record_instant("frw", long_name, /*pid=*/7, /*ts_ns=*/i, /*cpi=*/i);
  }
  std::int64_t min_cpi = kTotal, max_cpi = -1;
  std::size_t ours = 0;
  for (const auto& e : fr.global().snapshot()) {
    if (e.cat != "frw") continue;  // other tests' threads may have rings
    ++ours;
    EXPECT_EQ(e.kind, obs::FlightRecorder::Kind::kInstant);
    EXPECT_EQ(e.pid, 7);
    EXPECT_EQ(e.name.size(), obs::FlightRecorder::kNameLen - 1)
        << "names must truncate into the fixed slot";
    min_cpi = std::min(min_cpi, e.cpi);
    max_cpi = std::max(max_cpi, e.cpi);
  }
  // Exactly one ring's worth survives: the newest kRingEvents, oldest
  // evicted in place.
  EXPECT_EQ(ours, obs::FlightRecorder::kRingEvents);
  EXPECT_EQ(max_cpi, kTotal - 1);
  EXPECT_EQ(min_cpi, kTotal - static_cast<std::int64_t>(ours));

  // The ring dump is valid JSON with the reason and schema marker.
  std::ostringstream out;
  fr.write_ring_json(out, "unit \"test\" reason");
  const Json doc = JsonParser(out.str()).parse();
  EXPECT_EQ(doc.at("schema_version").number, 1.0);
  EXPECT_EQ(doc.at("kind").str, "flight_ring");
  EXPECT_EQ(doc.at("reason").str, "unit \"test\" reason");
  EXPECT_GE(doc.at("events").array.size(), ours);
  fr.clear();
}

TEST(FlightRing, SupervisorAbortDumpsRingAndTraceStaysValid) {
  const fsys::path root =
      fsys::temp_directory_path() /
      ("pstap_obs_crash_" + std::to_string(::getpid()));
  const fsys::path trace_path = root / "aborted.trace.json";
  fsys::remove_all(root);
  fsys::create_directories(root);

  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});
  pipeline::RunOptions opt;
  opt.cpis = 4;
  opt.warmup = 1;
  opt.seed = 77;
  opt.fs_root = root / "fs";
  opt.trace_path = trace_path;
  opt.supervise.enabled = true;
  opt.supervise.heartbeat_interval = 2e-3;
  opt.supervise.max_respawns = 0;  // first crash exhausts the budget -> abort
  opt.fault_plan = std::make_shared<fault::FaultPlan>(41);
  opt.fault_plan->arm_crash("pipeline.rank.3", /*at_index=*/2);

  pipeline::ThreadRunner runner(spec, opt);
  EXPECT_THROW(runner.run(), RuntimeError);

  // The acceptance criterion: an aborted run still leaves a valid Chrome
  // trace at the session path plus a last-N-events ring dump next to it.
  const Json trace = parse_trace_file(trace_path);  // throws if malformed
  EXPECT_FALSE(trace.at("traceEvents").array.empty());

  const Json ring = parse_trace_file(fsys::path(trace_path) += ".crash");
  EXPECT_EQ(ring.at("schema_version").number, 1.0);
  EXPECT_EQ(ring.at("kind").str, "flight_ring");
  EXPECT_NE(ring.at("reason").str.find("abort"), std::string::npos)
      << ring.at("reason").str;
  EXPECT_FALSE(ring.at("events").array.empty());
  // The ring's breadcrumbs include the supervisor's own abort marker even
  // though tracing routed spans through the trace buffers.
  bool saw_abort_event = false;
  for (const Json& e : ring.at("events").array) {
    saw_abort_event |= e.at("name").str == "supervisor.abort";
  }
  EXPECT_TRUE(saw_abort_event);

  fsys::remove_all(root);
}

// ------------------------------------------------------- JSON escaping --

// One escaper serves all three writers: a quote, a backslash and control
// characters in a string field must come back intact from each document.
TEST(ObsJson, EveryWriterEscapesQuoteBackslashAndControl) {
  const std::string nasty = "a\"b\\c\x01" "d\te\nf\x1f";

  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
  rec.instant("escape", nasty, /*pid=*/9, /*cpi=*/-1, nasty);
  rec.disable();
  std::ostringstream trace;
  rec.write_chrome_json(trace);
  rec.clear();
  const Json trace_doc = JsonParser(trace.str()).parse();
  int found = 0;
  for (const Json& e : trace_doc.at("traceEvents").array) {
    if (e.at("cat").str != "escape") continue;
    ++found;
    EXPECT_EQ(e.at("name").str, nasty);
    EXPECT_EQ(e.at("args").at("detail").str, nasty);
  }
  EXPECT_EQ(found, 1);

  std::ostringstream ring;
  obs::FlightRecorder::global().write_ring_json(ring, nasty);
  EXPECT_EQ(JsonParser(ring.str()).parse().at("reason").str, nasty);

  obs::RunReport report;
  report.kind = "functional";
  report.label = nasty;
  std::ostringstream doc;
  obs::write_report_document(doc, std::span<const obs::RunReport>(&report, 1));
  const Json parsed = JsonParser(doc.str()).parse();
  ASSERT_EQ(parsed.at("reports").array.size(), 1u);
  EXPECT_EQ(parsed.at("reports").array[0].at("label").str, nasty);
}

// ------------------------------------------------------ histogram JSON --

TEST(HistogramJson, RoundTripIsLossless) {
  obs::Histogram h;
  for (int i = 1; i <= 400; ++i) h.record(i * 3.7e-5);
  h.record(12.5);
  const obs::Histogram back = obs::Histogram::from_json(h.to_json());
  EXPECT_EQ(back.count(), h.count());
  EXPECT_DOUBLE_EQ(back.sum(), h.sum());
  EXPECT_DOUBLE_EQ(back.min(), h.min());
  EXPECT_DOUBLE_EQ(back.max(), h.max());
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_EQ(back.bucket_count(i), h.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(back.p50(), h.p50());
  EXPECT_DOUBLE_EQ(back.p95(), h.p95());
  EXPECT_DOUBLE_EQ(back.p99(), h.p99());

  const obs::Histogram empty_back = obs::Histogram::from_json(
      obs::Histogram{}.to_json());
  EXPECT_EQ(empty_back.count(), 0u);

  // Inconsistent documents are rejected, not silently absorbed.
  EXPECT_THROW(obs::Histogram::from_json("{\"count\":3,\"sum\":1.0,"
                                         "\"min\":0.1,\"max\":0.5,"
                                         "\"buckets\":[[4,1]]}"),
               std::runtime_error);
  EXPECT_THROW(obs::Histogram::from_json("not json"), std::runtime_error);
}

TEST(RegistrySnapshotTest, HistogramsConsistentUnderConcurrentRecord) {
  auto& h = obs::Registry::global().histogram("test.snapshot.race");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&h, &stop, t] {
      double v = 1e-6 * (t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        h.record(v);
        v = v * 1.37 + 1e-7;
        if (v > 1.0) v = 1e-6 * (t + 1);
      }
    });
  }
  for (int iter = 0; iter < 200; ++iter) {
    const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
    for (const auto& [name, hist] : snap.histograms) {
      std::uint64_t bucket_total = 0;
      for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
        bucket_total += hist.bucket_count(i);
      }
      ASSERT_EQ(hist.count(), bucket_total)
          << name << ": torn snapshot at iteration " << iter;
      if (hist.count() > 0) {
        ASSERT_LE(hist.min(), hist.max()) << name;
        ASSERT_LE(hist.p50(), hist.p99()) << name;
      }
    }
  }
  stop = true;
  for (auto& w : writers) w.join();
}

// ------------------------------------------------------------ RunReport --

TEST(RunReportTest, SchemaRoundTripAndTable3OrderingFromReportData) {
  const fsys::path path =
      fsys::temp_directory_path() /
      ("pstap_obs_report_" + std::to_string(::getpid()) + ".json");
  fsys::remove(path);
  {
    obs::ReportSession session(path);
    ASSERT_TRUE(session.active());
    const stap::RadarParams p;  // paper-scale cube; sim costs are analytic
    const auto machine = sim::paragon_like(16);
    const auto split =
        pipeline::PipelineSpec::embedded_io(p, {8, 2, 6, 4, 10, 6, 4});
    const auto merged = pipeline::PipelineSpec::combined(p, {8, 2, 6, 4, 10, 10});
    (void)sim::SimRunner(split, machine).run();
    (void)sim::SimRunner(merged, machine).run();
  }
  ASSERT_FALSE(obs::report_enabled());

  const Json doc = parse_trace_file(path);  // throws if malformed
  EXPECT_EQ(doc.at("schema_version").number, obs::kReportSchemaVersion);
  EXPECT_EQ(doc.at("generator").str, "pstap");
  const auto& reports = doc.at("reports").array;
  ASSERT_EQ(reports.size(), 2u);

  double split_latency = 0, combined_latency = 0;
  std::set<std::string> labels;
  for (const Json& r : reports) {
    labels.insert(r.at("label").str);
    EXPECT_EQ(r.at("kind").str, "sim");
    EXPECT_EQ(r.at("config").at("machine").str, "paragon-pfs16");
    EXPECT_EQ(r.at("geometry").at("channels").number,
              static_cast<double>(stap::RadarParams{}.channels));
    ASSERT_FALSE(r.at("tasks").array.empty());
    for (const Json& t : r.at("tasks").array) {
      for (const Json& ph : t.at("phases").array) {
        // Every phase histogram is schema-complete, bucket dump included.
        const Json& hist = ph.at("hist");
        EXPECT_TRUE(hist.has("count") && hist.has("buckets") &&
                    hist.has("p95"))
            << t.at("name").str << "/" << ph.at("name").str;
      }
    }
    const double latency = r.at("totals").at("latency_s").number;
    EXPECT_GT(latency, 0.0);
    if (r.at("config").at("combined_pc_cfar").boolean) {
      combined_latency = latency;
    } else {
      split_latency = latency;
    }
  }
  EXPECT_EQ(labels.size(), 2u) << "diff keys must be unique";
  // Table 3's headline, reproduced from the report document alone:
  // combining PC and CFAR (same total nodes) cuts pipeline latency.
  EXPECT_GT(split_latency, 0.0);
  EXPECT_GT(combined_latency, 0.0);
  EXPECT_LT(combined_latency, split_latency);
  fsys::remove(path);
}

// A supervised functional run with injected corruption and one crash: the
// report's io and recovery objects keep their published key order, and
// every counter in them is the run's own RunResult value.
TEST(RunReportTest, FunctionalReportCountersMatchRunResult) {
  const fsys::path root =
      fsys::temp_directory_path() /
      ("pstap_obs_counters_" + std::to_string(::getpid()));
  const fsys::path path = root / "report.json";
  fsys::remove_all(root);
  fsys::create_directories(root);

  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});
  pipeline::RunOptions opt;
  opt.cpis = 4;
  opt.warmup = 1;
  opt.seed = 77;
  opt.fs_root = root / "fs";
  opt.scene.cnr_db = 40.0;
  opt.scene.targets = {{40, 8.0, 0.0, 18.0}, {90, 1.0, -0.35, 25.0}};
  opt.supervise.enabled = true;
  opt.supervise.heartbeat_interval = 2e-3;
  opt.supervise.hang_timeout = 30.0;
  opt.io_retry.max_attempts = 8;
  opt.io_retry.initial_backoff = 1e-4;
  opt.fault_plan = std::make_shared<fault::FaultPlan>(59);
  opt.fault_plan->arm_corruption("pfs.server.read", 1.0, /*max_hits=*/5);
  opt.fault_plan->arm_crash("pipeline.rank.3", /*at_index=*/2);

  pipeline::RunResult result;
  {
    obs::ReportSession session(path);
    ASSERT_TRUE(session.active());
    result = pipeline::ThreadRunner(spec, opt).run();
  }
  const obs::IoStats& io = result.metrics.io;
  const obs::RecoveryStats& rec = result.metrics.recovery;
  ASSERT_EQ(io.injected_corruptions, 5u) << "the fault plan must fire";
  ASSERT_EQ(rec.crashes_detected, 1u) << "the fault plan must fire";

  const Json doc = parse_trace_file(path);
  ASSERT_EQ(doc.at("reports").array.size(), 1u);
  const Json& report = doc.at("reports").array.front();

  // Key order and values, written out by hand (not read from kCounters)
  // so a mis-wired table entry fails here. The order is the schema-v1
  // order the report had before the counter structs were shared.
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::vector<std::pair<std::string, double>> want_io = {
      {"queue_depth_peak", io.queue_depth.max()},
      {"bytes_serviced", d(io.bytes_serviced)},
      {"retries", d(io.retries)},
      {"injected_delays", d(io.injected_delays)},
      {"injected_errors", d(io.injected_errors)},
      {"injected_partials", d(io.injected_partials)},
      {"injected_corruptions", d(io.injected_corruptions)},
      {"corrupt_chunks", d(io.corrupt_chunks)},
      {"quarantined_servers", d(io.quarantined_servers)},
      {"hedges_launched", d(io.hedges_launched)},
      {"hedge_wins", d(io.hedge_wins)},
      {"hedge_cancels", d(io.hedge_cancels)},
      {"chunks_stolen", d(io.chunks_stolen)},
      {"deadline_expired", d(io.deadline_expired)},
      {"breaker_reopened", d(io.breaker_reopened)},
  };
  const std::vector<std::pair<std::string, double>> want_rec = {
      {"injected_crashes", d(rec.injected_crashes)},
      {"crashes_detected", d(rec.crashes_detected)},
      {"ranks_respawned", d(rec.ranks_respawned)},
      {"io_failovers", d(rec.io_failovers)},
      {"promoted_reads", d(rec.promoted_reads)},
      {"replayed_messages", d(rec.replayed_messages)},
      {"checkpoint_peak_bytes", d(rec.checkpoint_peak_bytes)},
      {"max_detection_delay_s", rec.max_detection_delay},
  };
  const auto names = [](const auto& want) {
    std::vector<std::string> out;
    for (const auto& [name, value] : want) out.push_back(name);
    return out;
  };

  const Json& io_json = report.at("io");
  std::vector<std::string> io_keys = names(want_io);
  for (const char* k : {"queue_depth", "service_time", "submit_latency", "servers"}) {
    io_keys.push_back(k);
  }
  EXPECT_EQ(io_json.keys, io_keys);
  for (const auto& [name, value] : want_io) {
    EXPECT_EQ(io_json.at(name).number, value) << "io." << name;
  }
  EXPECT_EQ(io_json.at("queue_depth").at("count").number,
            d(io.queue_depth.count()));
  EXPECT_EQ(io_json.at("servers").array.size(), io.server_service_time.size());

  const Json& rec_json = report.at("recovery");
  EXPECT_EQ(rec_json.keys, names(want_rec));
  for (const auto& [name, value] : want_rec) {
    EXPECT_EQ(rec_json.at(name).number, value) << "recovery." << name;
  }
  fsys::remove_all(root);
}

// ------------------------------------------------------- report_diff.py --

obs::RunReport synthetic_report(double compute_scale) {
  obs::RunReport r;
  r.label = "synthetic pipeline";
  r.kind = "sim";
  r.config.io_strategy = "embedded";
  r.config.total_nodes = 2;
  r.totals.throughput_cpis_per_s = 10.0 / compute_scale;
  r.totals.latency_s = 0.5 + 0.5 * compute_scale;
  obs::RunReport::Task fast;
  fast.name = "stage_fast";
  fast.nodes = 1;
  obs::RunReport::Task slow;
  slow.name = "stage_slow";
  slow.nodes = 1;
  for (const char* phase : {"receive", "compute", "send"}) {
    obs::RunReport::Phase pf;
    pf.name = phase;
    pf.mean_s = 0.1;
    for (int i = 0; i < 32; ++i) pf.hist.record(0.1);
    fast.phases.push_back(pf);
    obs::RunReport::Phase ps = pf;
    if (ps.name == "compute") {
      ps.mean_s = 0.1 * compute_scale;
      ps.hist = obs::Histogram{};
      for (int i = 0; i < 32; ++i) ps.hist.record(0.1 * compute_scale);
    }
    slow.phases.push_back(ps);
  }
  r.tasks = {fast, slow};
  return r;
}

TEST(ReportDiff, AttributesSyntheticSlowdownToTheSlowedStage) {
  if (std::system("python3 -c pass >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 unavailable";
  }
  const fsys::path dir =
      fsys::temp_directory_path() /
      ("pstap_obs_diff_" + std::to_string(::getpid()));
  fsys::remove_all(dir);
  fsys::create_directories(dir);
  const fsys::path base_path = dir / "base.json";
  const fsys::path cur_path = dir / "cur.json";
  const fsys::path out_path = dir / "out.txt";

  std::vector<obs::RunReport> base{synthetic_report(1.0)};
  std::vector<obs::RunReport> cur{synthetic_report(2.0)};  // 2x compute
  base[0].io.emplace();
  cur[0].io.emplace();
  cur[0].io->chunks_stolen = 7;  // a moved counter, reported by name
  obs::write_report_document(base_path, base);
  obs::write_report_document(cur_path, cur);

  const std::string script =
      (fsys::path(PSTAP_SCRIPTS_DIR) / "report_diff.py").string();
  const std::string validate_cmd = "python3 '" + script + "' --validate '" +
                                   base_path.string() + "' '" +
                                   cur_path.string() + "' >/dev/null 2>&1";
  EXPECT_EQ(WEXITSTATUS(std::system(validate_cmd.c_str())), 0)
      << "synthetic reports must satisfy the published schema";

  const std::string diff_cmd = "python3 '" + script + "' '" +
                               base_path.string() + "' '" + cur_path.string() +
                               "' >'" + out_path.string() + "' 2>&1";
  const int rc = WEXITSTATUS(std::system(diff_cmd.c_str()));
  std::ifstream in(out_path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string out = buf.str();

  EXPECT_EQ(rc, 1) << out;  // regression above threshold -> exit 1
  EXPECT_NE(out.find("REGRESSION"), std::string::npos) << out;
  const auto slow_at = out.find("stage_slow");
  const auto fast_at = out.find("stage_fast");
  ASSERT_NE(slow_at, std::string::npos) << out;
  // Attribution ranks by |delta|: the slowed stage leads any mention of
  // the unchanged one, and its compute tail is called out.
  if (fast_at != std::string::npos) {
    EXPECT_LT(slow_at, fast_at) << out;
  }
  EXPECT_NE(out.find("compute p95"), std::string::npos) << out;
  EXPECT_NE(out.find("io.chunks_stolen 0->7"), std::string::npos) << out;
  EXPECT_EQ(out.find("corrupt_chunks"), std::string::npos)
      << "only counters that moved are listed\n" << out;

  fsys::remove_all(dir);
}

// --validate rejects an io or recovery counter that is not a non-negative
// number, naming it, with exit 1 rather than a Python traceback.
TEST(ReportDiff, ValidateRejectsNonNumericOrNegativeCounters) {
  if (std::system("python3 -c pass >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 unavailable";
  }
  const fsys::path dir =
      fsys::temp_directory_path() /
      ("pstap_obs_counters_diff_" + std::to_string(::getpid()));
  fsys::remove_all(dir);
  fsys::create_directories(dir);

  std::vector<obs::RunReport> reports{synthetic_report(1.0)};
  reports[0].io.emplace();
  reports[0].io->chunks_stolen = 7;
  reports[0].recovery.emplace();
  reports[0].recovery->crashes_detected = 2;
  std::ostringstream doc;
  obs::write_report_document(doc, reports);

  const std::string script =
      (fsys::path(PSTAP_SCRIPTS_DIR) / "report_diff.py").string();
  const auto validate = [&](const std::string& name, const std::string& text,
                            std::string& out) {
    const fsys::path path = dir / (name + ".json");
    const fsys::path out_path = dir / (name + ".txt");
    std::ofstream(path) << text;
    const std::string cmd = "python3 '" + script + "' --validate '" +
                            path.string() + "' >'" + out_path.string() + "' 2>&1";
    const int rc = WEXITSTATUS(std::system(cmd.c_str()));
    std::ifstream in(out_path);
    std::stringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return rc;
  };
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string text = doc.str();
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };

  std::string out;
  EXPECT_EQ(validate("good", doc.str(), out), 0) << out;
  for (const auto& [name, text] : std::vector<std::pair<std::string, std::string>>{
           {"io_string", replaced("\"chunks_stolen\":7", "\"chunks_stolen\":\"7\"")},
           {"io_negative", replaced("\"chunks_stolen\":7", "\"chunks_stolen\":-7")},
           {"recovery_string",
            replaced("\"crashes_detected\":2", "\"crashes_detected\":\"two\"")},
           {"recovery_negative",
            replaced("\"crashes_detected\":2", "\"crashes_detected\":-2")}}) {
    EXPECT_EQ(validate(name, text, out), 1) << name << "\n" << out;
    const char* counter =
        name.starts_with("io") ? "io.chunks_stolen" : "recovery.crashes_detected";
    EXPECT_NE(out.find(counter), std::string::npos) << name << "\n" << out;
    EXPECT_EQ(out.find("Traceback"), std::string::npos) << name << "\n" << out;
  }
  fsys::remove_all(dir);
}

}  // namespace
}  // namespace pstap
