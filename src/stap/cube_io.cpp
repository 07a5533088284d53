#include "stap/cube_io.hpp"

#include <algorithm>
#include <vector>

#include "obs/trace.hpp"

namespace pstap::stap {

std::uint64_t cpi_file_bytes(const RadarParams& params) {
  return static_cast<std::uint64_t>(params.cube_bytes());
}

std::uint64_t cpi_file_offset(const RadarParams& params, std::size_t r0) {
  return static_cast<std::uint64_t>(r0) * params.pulses * params.channels *
         sizeof(cfloat);
}

std::size_t slab_elements(const RadarParams& params, std::size_t r0, std::size_t r1) {
  PSTAP_REQUIRE(r0 <= r1 && r1 <= params.ranges, "invalid range slab");
  return (r1 - r0) * params.pulses * params.channels;
}

namespace {

/// Pack a cube in pulse-major order: [pulse][channel][range].
void pack_pulse_major(const DataCube& cube, std::span<cfloat> raw) {
  cfloat* dst = raw.data();
  for (std::size_t p = 0; p < cube.pulses(); ++p) {
    for (std::size_t c = 0; c < cube.channels(); ++c) {
      const auto row = cube.range_series(c, p);
      dst = std::copy(row.begin(), row.end(), dst);
    }
  }
}

}  // namespace

void write_cpi(pfs::StripedFileSystem& fs, const std::string& name,
               const DataCube& cube, FileLayout layout) {
  AlignedBuffer<cfloat> staging(cube.samples());
  write_cpi(fs, name, cube, layout, staging.span());
}

void write_cpi(pfs::StripedFileSystem& fs, const std::string& name,
               const DataCube& cube, FileLayout layout, std::span<cfloat> staging) {
  PSTAP_REQUIRE(staging.size() == cube.samples(), "staging buffer size mismatch");
  if (layout == FileLayout::kRangeMajor) {
    cube.pack_file_order(0, cube.ranges(), staging);
  } else {
    pack_pulse_major(cube, staging);
  }
  pfs::StripedFile f = fs.create(name);
  f.write_values<cfloat>(0, std::span<const cfloat>(staging));
}

DataCube read_cpi_slab(pfs::StripedFile& file, const RadarParams& params,
                       std::size_t r0, std::size_t r1, FileLayout layout,
                       const RetryPolicy& retry) {
  PSTAP_REQUIRE(r0 < r1, "empty range slab");
  obs::ScopedSpan span("io", "read_cpi_slab", obs::kLibraryPid);
  std::vector<cfloat> raw(slab_elements(params, r0, r1));
  with_retry(retry, "read_cpi_slab(" + file.name() + ")", [&] {
    pfs::IoRequest req = start_read_cpi_slab(file, params, r0, r1, raw, layout);
    pfs::wait_with_timeout(req, retry.attempt_timeout,
                           "read_cpi_slab(" + file.name() + ")");
  });
  return unpack_slab(params, r0, r1, raw, layout);
}

pfs::IoRequest start_read_cpi_slab(pfs::StripedFile& file, const RadarParams& params,
                                   std::size_t r0, std::size_t r1,
                                   std::span<cfloat> raw, FileLayout layout) {
  PSTAP_REQUIRE(r0 < r1 && r1 <= params.ranges, "invalid range slab");
  PSTAP_REQUIRE(raw.size() == slab_elements(params, r0, r1),
                "raw slab buffer size mismatch");
  if (layout == FileLayout::kRangeMajor) {
    return file.iread_values<cfloat>(cpi_file_offset(params, r0), raw);
  }
  // Pulse-major: one strided segment per (pulse, channel) row; raw receives
  // the rows back to back in (p * channels + c) order.
  const std::size_t slab = r1 - r0;
  auto bytes = std::as_writable_bytes(raw);
  std::vector<pfs::StripedFile::IoSegment> segments;
  segments.reserve(params.pulses * params.channels);
  for (std::size_t p = 0; p < params.pulses; ++p) {
    for (std::size_t c = 0; c < params.channels; ++c) {
      const std::size_t row = p * params.channels + c;
      pfs::StripedFile::IoSegment seg;
      seg.offset = (static_cast<std::uint64_t>(row) * params.ranges + r0) *
                   sizeof(cfloat);
      seg.buf = bytes.subspan(row * slab * sizeof(cfloat), slab * sizeof(cfloat));
      segments.push_back(seg);
    }
  }
  return file.iread_gather(segments);
}

DataCube unpack_slab(const RadarParams& params, std::size_t r0, std::size_t r1,
                     std::span<const cfloat> raw, FileLayout layout) {
  PSTAP_REQUIRE(raw.size() == slab_elements(params, r0, r1),
                "raw slab buffer size mismatch");
  const std::size_t slab = r1 - r0;
  DataCube cube(params.channels, params.pulses, slab);
  if (layout == FileLayout::kRangeMajor) {
    cube.unpack_file_order(0, slab, raw);
    return cube;
  }
  for (std::size_t p = 0; p < params.pulses; ++p) {
    for (std::size_t c = 0; c < params.channels; ++c) {
      const auto src = raw.subspan((p * params.channels + c) * slab, slab);
      std::copy(src.begin(), src.end(), cube.range_series(c, p).begin());
    }
  }
  return cube;
}

std::string round_robin_name(std::uint64_t cpi, std::size_t files) {
  return "cpi_rr" + std::to_string(cpi % files);
}

}  // namespace pstap::stap
