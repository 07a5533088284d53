// Reading and writing CPI cubes through the striped parallel file system.
//
// Two on-disk element orders are supported:
//
//  * kRangeMajor ([range][pulse][channel]) — the layout the paper's system
//    uses: a contiguous byte region of the file is a contiguous slab of
//    range gates, so each I/O node reads its exclusive portion with a
//    single positioned read (paper §4).
//  * kPulseMajor ([pulse][channel][range]) — what a streaming radar ADC
//    naturally writes (one pulse at a time across channels): a range slab
//    becomes pulses*channels small strided segments. Reading it takes a
//    gather read, or better, the two-phase collective read in
//    pipeline/collective_read.hpp.
//
// (FileLayout itself lives in data_cube.hpp.) A pipeline slab read is not
// decoded: DopplerFilter::process_into filters the raw buffer
// start_read_cpi_slab filled, in either layout. read_cpi, read_cpi_slab
// and unpack_slab decode into a DataCube for every other reader.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/retry.hpp"
#include "pfs/striped_file_system.hpp"
#include "stap/data_cube.hpp"
#include "stap/radar_params.hpp"

namespace pstap::stap {

/// Bytes of one CPI file for these parameters (layout independent).
std::uint64_t cpi_file_bytes(const RadarParams& params);

/// Byte offset of range gate `r0` within a range-major CPI file.
std::uint64_t cpi_file_offset(const RadarParams& params, std::size_t r0);

/// Elements in a raw range slab [r0, r1) (layout independent).
std::size_t slab_elements(const RadarParams& params, std::size_t r0, std::size_t r1);

/// Write a full cube as file `name` (the radar side).
void write_cpi(pfs::StripedFileSystem& fs, const std::string& name,
               const DataCube& cube, FileLayout layout = FileLayout::kRangeMajor);

/// Read a full cube from file `name`. `retry` governs transient I/O
/// failures and per-attempt timeouts (the default fails fast).
DataCube read_cpi(pfs::StripedFileSystem& fs, const std::string& name,
                  const RadarParams& params,
                  FileLayout layout = FileLayout::kRangeMajor,
                  const RetryPolicy& retry = {});

/// Read range gates [r0, r1) of `file` into a cube of (r1-r0) ranges —
/// the per-node exclusive-portion read. Synchronous. On pulse-major files
/// this is a strided gather read. Transient failures and timeouts are
/// retried per `retry` (whole-slab reissue: chunk buffers cannot be
/// salvaged piecemeal once any chunk fails).
DataCube read_cpi_slab(pfs::StripedFile& file, const RadarParams& params,
                       std::size_t r0, std::size_t r1,
                       FileLayout layout = FileLayout::kRangeMajor,
                       const RetryPolicy& retry = {});

/// Asynchronous slab read: starts the transfer into `raw` (slab_elements()
/// values; must outlive the request). After completion, hand `raw` to
/// DopplerFilter::process_into as it is, or decode it with unpack_slab.
pfs::IoRequest start_read_cpi_slab(pfs::StripedFile& file, const RadarParams& params,
                                   std::size_t r0, std::size_t r1,
                                   std::span<cfloat> raw,
                                   FileLayout layout = FileLayout::kRangeMajor);

/// Decode a completed raw slab into a cube of (r1-r0) ranges.
DataCube unpack_slab(const RadarParams& params, std::size_t r0, std::size_t r1,
                     std::span<const cfloat> raw,
                     FileLayout layout = FileLayout::kRangeMajor);

/// The paper's round-robin file naming: the radar writes 4 files cyclically
/// and the pipeline reads them in the same order.
std::string round_robin_name(std::uint64_t cpi, std::size_t files = 4);

}  // namespace pstap::stap
