#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace pstap::obs {

namespace {
constexpr double kMinValue = 1e-9;     // lower bound of bucket 0
constexpr double kLog2Ratio = 0.5;     // ratio sqrt(2) => 2 buckets per octave
}  // namespace

std::size_t Histogram::bucket_index(double value) {
  if (!(value > kMinValue)) return 0;  // also catches NaN
  const double i = std::floor(std::log2(value / kMinValue) / kLog2Ratio);
  if (i >= static_cast<double>(kBuckets - 1)) return kBuckets - 1;
  return static_cast<std::size_t>(i);
}

double Histogram::bucket_lower_bound(std::size_t i) {
  return kMinValue * std::exp2(kLog2Ratio * static_cast<double>(i));
}

void Histogram::record(double value) {
  if (std::isnan(value)) return;
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);

  // Extrema via CAS; initialize both from the first observation. The first
  // recorder wins the init race because count_ is bumped after the seed.
  if (count_.fetch_add(1, std::memory_order_acq_rel) == 0) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  }
  double seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::merge(const Histogram& other) {
  // Derive the observation count from the bucket loads themselves instead
  // of trusting other.count_: record() bumps bucket, then sum, then count,
  // so under concurrent recording count_ lags the buckets and a copy keyed
  // on it would be torn (count < sum of buckets breaks quantile()'s rank
  // arithmetic). Whatever set of buckets we read here is the set we count.
  std::uint64_t n = 0;
  std::size_t lo_bucket = kBuckets;
  std::size_t hi_bucket = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = other.buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) {
      buckets_[i].fetch_add(c, std::memory_order_relaxed);
      n += c;
      lo_bucket = std::min(lo_bucket, i);
      hi_bucket = i;
    }
  }
  if (n == 0) return;
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  // other's extrema are seeded after its count_; mid-record they may still
  // be unset, so fall back to the observed buckets' geometric bounds.
  double other_min = other.min_.load(std::memory_order_relaxed);
  double other_max = other.max_.load(std::memory_order_relaxed);
  if (other.count_.load(std::memory_order_relaxed) == 0) {
    other_min = bucket_lower_bound(lo_bucket);
    other_max = bucket_lower_bound(hi_bucket + 1);
  }
  if (count_.fetch_add(n, std::memory_order_acq_rel) == 0) {
    min_.store(other_min, std::memory_order_relaxed);
    max_.store(other_max, std::memory_order_relaxed);
  }
  double seen = min_.load(std::memory_order_relaxed);
  while (other_min < seen &&
         !min_.compare_exchange_weak(seen, other_min, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (other_max > seen &&
         !max_.compare_exchange_weak(seen, other_max, std::memory_order_relaxed)) {
  }
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::quantile(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the target observation (1-based, nearest-rank definition).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      const double lo = bucket_lower_bound(i);
      const double hi = bucket_lower_bound(i + 1);
      return std::clamp(std::sqrt(lo * hi), min(), max());
    }
  }
  return max();
}

namespace {

void write_double(std::ostream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);  // round-trips binary64
  out << buf;
}

/// Minimal scanner for the exact shape Histogram::to_json emits (plus
/// arbitrary extra keys, which are skipped): enough JSON for round-trip,
/// not a general parser.
class HistJsonScanner {
 public:
  explicit HistJsonScanner(std::string_view s) : s_(s) {}

  void parse_into(std::uint64_t& count, double& sum, double& min, double& max,
                  std::vector<std::pair<std::size_t, std::uint64_t>>& buckets) {
    expect('{');
    if (peek() == '}') {
      get();
      return;
    }
    while (true) {
      const std::string key = string_token();
      expect(':');
      if (key == "count") {
        count = static_cast<std::uint64_t>(number_token());
      } else if (key == "sum") {
        sum = number_token();
      } else if (key == "min") {
        min = number_token();
      } else if (key == "max") {
        max = number_token();
      } else if (key == "buckets") {
        bucket_array(buckets);
      } else {
        skip_value();  // p50/p95/p99 and any future additions
      }
      const char c = get();
      if (c == '}') return;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

 private:
  [[noreturn]] void fail(const char* why) {
    throw std::runtime_error(std::string("Histogram::from_json: ") + why);
  }

  char peek() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  char get() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (get() != c) fail("unexpected token");
  }

  std::string string_token() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // keys we care about have no escapes
      if (pos_ < s_.size()) out.push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double number_token() {
    peek();
    std::size_t used = 0;
    double v = 0;
    try {
      v = std::stod(std::string(s_.substr(pos_)), &used);
    } catch (const std::exception&) {
      fail("expected a number");
    }
    pos_ += used;
    return v;
  }

  void bucket_array(std::vector<std::pair<std::size_t, std::uint64_t>>& out) {
    expect('[');
    if (peek() == ']') {
      get();
      return;
    }
    while (true) {
      expect('[');
      const double idx = number_token();
      expect(',');
      const double cnt = number_token();
      expect(']');
      if (idx < 0 || idx >= static_cast<double>(Histogram::kBuckets)) {
        fail("bucket index out of range");
      }
      if (cnt < 0) fail("negative bucket count");
      out.emplace_back(static_cast<std::size_t>(idx),
                       static_cast<std::uint64_t>(cnt));
      const char c = get();
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']' in buckets");
    }
  }

  void skip_value() {
    const char c = peek();
    if (c == '"') {
      string_token();
      return;
    }
    if (c == '[' || c == '{') {
      const char open = get();
      const char close = open == '[' ? ']' : '}';
      int depth = 1;
      while (depth > 0) {
        const char t = get();
        if (t == '"') {
          --pos_;
          string_token();
        } else if (t == open) {
          ++depth;
        } else if (t == close) {
          --depth;
        }
      }
      return;
    }
    number_token();
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

void Histogram::to_json(std::ostream& out) const {
  // Read the buckets once and derive count from them (same consistency
  // rule as merge): the serialized document always satisfies
  // count == sum(bucket counts), the invariant from_json and report
  // tooling validate.
  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    n += counts[i];
  }
  out << "{\"count\":" << n << ",\"sum\":";
  write_double(out, n == 0 ? 0.0 : sum());
  out << ",\"min\":";
  write_double(out, min());
  out << ",\"max\":";
  write_double(out, max());
  out << ",\"p50\":";
  write_double(out, p50());
  out << ",\"p95\":";
  write_double(out, p95());
  out << ",\"p99\":";
  write_double(out, p99());
  out << ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "[" << i << "," << counts[i] << "]";
  }
  out << "]}";
}

std::string Histogram::to_json() const {
  std::ostringstream out;
  to_json(out);
  return out.str();
}

Histogram Histogram::from_json(std::string_view json) {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets;
  HistJsonScanner(json).parse_into(count, sum, min, max, buckets);

  Histogram h;
  std::uint64_t n = 0;
  for (const auto& [i, c] : buckets) {
    h.buckets_[i].store(c, std::memory_order_relaxed);
    n += c;
  }
  if (count != n) {
    throw std::runtime_error(
        "Histogram::from_json: count does not match bucket totals");
  }
  h.count_.store(n, std::memory_order_relaxed);
  h.sum_.store(sum, std::memory_order_relaxed);
  h.min_.store(min, std::memory_order_relaxed);
  h.max_.store(max, std::memory_order_relaxed);
  return h;
}

void Gauge::raise_peak(std::int64_t v) {
  std::int64_t seen = peak_.load(std::memory_order_relaxed);
  while (v > seen &&
         !peak_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

void Gauge::set(std::int64_t v) {
  value_.store(v, std::memory_order_relaxed);
  raise_peak(v);
}

std::int64_t Gauge::add(std::int64_t n) {
  const std::int64_t now = value_.fetch_add(n, std::memory_order_relaxed) + n;
  raise_peak(now);
  return now;
}

void Gauge::reset() {
  value_.store(0, std::memory_order_relaxed);
  peak_.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* registry = new Registry();  // never destroyed (see trace.cpp)
  return *registry;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard lock(mu_);
  RegistrySnapshot snap;
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, *h);  // copy ctor = consistent merge
  }
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, std::make_pair(g->value(), g->peak()));
  }
  return snap;
}

std::string Registry::report() const {
  std::ostringstream out;
  char line[256];
  std::lock_guard lock(mu_);
  for (const auto& [name, h] : histograms_) {
    if (h->count() == 0) continue;
    std::snprintf(line, sizeof line,
                  "%-32s n=%-8llu mean=%-10.4g p50=%-10.4g p95=%-10.4g "
                  "p99=%-10.4g max=%.4g\n",
                  name.c_str(), static_cast<unsigned long long>(h->count()),
                  h->mean(), h->p50(), h->p95(), h->p99(), h->max());
    out << line;
  }
  for (const auto& [name, c] : counters_) {
    if (c->value() == 0) continue;
    std::snprintf(line, sizeof line, "%-32s %lld\n", name.c_str(),
                  static_cast<long long>(c->value()));
    out << line;
  }
  for (const auto& [name, g] : gauges_) {
    if (g->value() == 0 && g->peak() == 0) continue;
    std::snprintf(line, sizeof line, "%-32s value=%lld peak=%lld\n",
                  name.c_str(), static_cast<long long>(g->value()),
                  static_cast<long long>(g->peak()));
    out << line;
  }
  return out.str();
}

void Registry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
}

}  // namespace pstap::obs
