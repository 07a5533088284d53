// Always-on, lock-free metrics primitives: a fixed log-bucketed histogram
// with percentile estimation and lossless merge, plus counters, gauges and
// a process-wide named registry.
//
// Histogram values are unit-agnostic positive doubles (seconds, bytes,
// queue depths). Buckets are geometric with ratio sqrt(2), spanning
// [1e-9, 1e-9 * 2^64): nanosecond service times and multi-gigabyte
// transfer sizes land in-range with ~±19% bucket resolution. Recording is
// a couple of relaxed atomic adds — cheap enough to leave enabled in
// production paths (the tracing layer in obs/trace.hpp is the part that
// gets switched off).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pstap::obs {

class Histogram {
 public:
  static constexpr std::size_t kBuckets = 128;

  Histogram() = default;

  /// Snapshot copy (relaxed loads); safe while writers keep recording.
  Histogram(const Histogram& other) { merge(other); }
  Histogram& operator=(const Histogram& other) {
    if (this != &other) {
      reset();
      merge(other);
    }
    return *this;
  }

  /// Record one observation. Non-positive values clamp into the lowest
  /// bucket (a zero-length wait is still a wait).
  void record(double value);

  /// Add every observation of `other` into this histogram. The count added
  /// is derived from the bucket loads themselves (not other's count_), so
  /// a copy taken while `other` is being recorded into is internally
  /// consistent: count == sum of bucket counts, always.
  void merge(const Histogram& other);

  /// Zero all state (relaxed stores; not atomic as a whole).
  void reset();

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  double min() const;
  double max() const;

  /// Quantile estimate for p in [0,1]: geometric midpoint of the bucket
  /// holding the p-th observation, clamped to the observed [min, max].
  /// Error is bounded by the bucket ratio (sqrt(2)). Returns 0 when empty.
  double quantile(double p) const;

  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Observations in bucket `i` (for tests and renderers).
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Lower value bound of bucket `i`.
  static double bucket_lower_bound(std::size_t i);

  /// Index of the bucket `value` lands in.
  static std::size_t bucket_index(double value);

  /// Bucket-level JSON, the RunReport interchange form:
  ///   {"count":N,"sum":S,"min":m,"max":M,"p50":..,"p95":..,"p99":..,
  ///    "buckets":[[index,count],...]}    (sparse, index-ascending)
  /// count/sum/min/max/buckets round-trip exactly through from_json;
  /// the quantiles are derived output for downstream tooling.
  void to_json(std::ostream& out) const;
  std::string to_json() const;

  /// Parse the to_json form. Throws std::runtime_error on malformed input.
  static Histogram from_json(std::string_view json);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Observed extrema, encoded so CAS loops stay simple.
  std::atomic<double> min_{0.0};  // valid only when count_ > 0
  std::atomic<double> max_{0.0};
};

/// Monotonic event counter.
class Counter {
 public:
  void add(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Instantaneous level with a high-water mark (queue depth, in-flight ops).
class Gauge {
 public:
  void set(std::int64_t v);
  std::int64_t add(std::int64_t n);  ///< returns the new level
  std::int64_t sub(std::int64_t n) { return add(-n); }

  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  void reset();

 private:
  void raise_peak(std::int64_t v);

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// Point-in-time copy of every registered metric. Histogram copies are
/// internally consistent (count == sum of buckets) even when taken while
/// writers keep calling record() — see Histogram::merge.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, Histogram>> histograms;
  std::vector<std::pair<std::string, std::int64_t>> counters;
  /// name -> (value, peak)
  std::vector<std::pair<std::string, std::pair<std::int64_t, std::int64_t>>>
      gauges;
};

/// Process-wide named metrics. Entries are created on first use and never
/// removed, so returned references are stable — hot paths should look a
/// metric up once and keep the reference.
class Registry {
 public:
  static Registry& global();

  Histogram& histogram(std::string_view name);
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Consistent point-in-time copy of every metric, sorted by name. Safe
  /// (and meaningful) under concurrent record()/add() calls.
  RegistrySnapshot snapshot() const;

  /// Human-readable dump (one line per metric) for CLI surfaces.
  std::string report() const;

  /// Zero every registered metric in place (tests, run isolation).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

}  // namespace pstap::obs
