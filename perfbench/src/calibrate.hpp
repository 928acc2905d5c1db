// Host-speed calibration.
//
// The benchmark runs on shared hosts whose speed drifts by tens of
// percent over minutes (other tenants' load changes the clock and the
// shared caches). To make runs taken at different times comparable, a
// fixed, benchmark-side calibration kernel is timed in short slices
// interleaved with the measured operations, and host times are reported
// in reference seconds:
//
//   reference_seconds = measured_seconds * kReferenceSlice / median_slice
//
// where median_slice is the median slice time measured alongside. The
// kernel is an interpreter-style loop (table-driven dispatch, data-
// dependent branches, a 64 KiB working set), the same character as a
// cycle simulator's inner loop, and it never changes with the simulator,
// so a simulator speed-up moves reference seconds exactly as it moves
// measured seconds.
#pragma once

#include <vector>

namespace perfbench {

/// Nominal slice time that defines a reference second. One slice takes
/// 1.0-1.3 ms on a shared 4-vCPU x86-64 container, so reference and host
/// seconds are of the same order there.
inline constexpr double kReferenceSlice = 1.0e-3;

/// Time one calibration slice (a short untimed warm-up first, so the
/// slice does not pay for caches the previous operation evicted).
double calibration_slice();

/// Accumulates operation time and runs a slice after every 50 ms of it,
/// so slices sample the host speed throughout a pass (about 2% overhead).
class Calibrator {
 public:
  void after_op(double op_seconds);
  /// Reference seconds per measured second from the median of the slices
  /// taken since the last call (topped up to five), and restart.
  double take_factor();

 private:
  double pending_ = 0;
  std::vector<double> slices_;
};

}  // namespace perfbench
