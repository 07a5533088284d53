// Minimal perf-record JSON writer shared by the benchmark binaries.
//
// The benches dump their measurements as a flat, stable JSON document
// (BENCH_kernels.json / BENCH_pipeline.json) that is committed as the
// tracked perf baseline; scripts/compare_bench.py diffs a fresh run
// against it in CI. The format is deliberately tiny — one record per
// benchmark with name, iterations, ns/op and bytes/s — so the compare
// script never needs a JSON library. A benchmark run with repetitions has
// one record per repetition under the same name; the compare script takes
// each name's median.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace pstap::bench {

struct PerfRecord {
  std::string name;
  double iterations = 0;        ///< measured iterations
  double ns_per_op = 0;         ///< wall nanoseconds per iteration
  double bytes_per_second = 0;  ///< 0 when the bench tracks no byte rate
};

/// Write `records` to `path` as a {"benchmarks": [...]} document.
inline void write_perf_json(const std::string& path,
                            const std::vector<PerfRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("write_perf_json: cannot open " + path);
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const PerfRecord& r = records[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"iterations\": %.0f, "
                 "\"ns_per_op\": %.3f, \"bytes_per_second\": %.3f}%s\n",
                 r.name.c_str(), r.iterations, r.ns_per_op, r.bytes_per_second,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace pstap::bench
