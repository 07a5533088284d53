// Umbrella header: the full pstap public API with one include.
//
//   #include "pstap.hpp"
//
// Individual module headers remain the preferred includes inside the
// library itself; this header is a convenience for applications.
#pragma once

// Shared utilities.
#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "common/wall_clock.hpp"

// Numerical substrates.
#include "fft/fft.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/cmatrix.hpp"

// Message passing (threads as ranks).
#include "mp/comm.hpp"
#include "mp/world.hpp"

// Striped parallel file system.
#include "pfs/config.hpp"
#include "pfs/striped_file_system.hpp"

// STAP signal processing.
#include "stap/beamform.hpp"
#include "stap/cfar.hpp"
#include "stap/chain.hpp"
#include "stap/cube_io.hpp"
#include "stap/data_cube.hpp"
#include "stap/detection_log.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compress.hpp"
#include "stap/radar_params.hpp"
#include "stap/scene.hpp"
#include "stap/steering.hpp"
#include "stap/weights.hpp"
#include "stap/workload.hpp"

// Pipeline organizations and the functional backend.
#include "pipeline/collective_read.hpp"
#include "pipeline/metrics.hpp"
#include "pipeline/partition.hpp"
#include "pipeline/task_spec.hpp"
#include "pipeline/thread_runner.hpp"

// Machine-scale discrete-event simulation.
#include "sim/cost_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/sim_runner.hpp"
