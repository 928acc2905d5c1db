#include "calibrate.hpp"

#include <array>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr unsigned kCodeSize = 4096;  // bytecode ops, power of two
constexpr unsigned kMemWords = 8192;  // 64 KiB data working set
constexpr unsigned kSliceSteps = 80'000;
constexpr unsigned kWarmSteps = 8'000;
constexpr double kSliceEvery = 0.05;  // seconds of operation time per slice
constexpr std::size_t kMinSlices = 5;  // per factor, topped up when a pass took fewer

/// The kernel: interpret kSteps ops of a fixed pseudo-random bytecode.
/// Returns a value derived from the whole computation so it is not elided.
u64 interpret(unsigned steps) {
  static const std::array<unsigned char, kCodeSize> code = [] {
    std::array<unsigned char, kCodeSize> c{};
    u64 x = 0x9E3779B97F4A7C15ULL;
    for (auto& op : c) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      op = static_cast<unsigned char>(x);
    }
    return c;
  }();
  static std::array<u64, kMemWords> mem{};
  u64 r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  unsigned pc = 0;
  for (unsigned i = 0; i < steps; ++i) {
    const unsigned op = code[pc];
    const unsigned a = (op >> 3) & 7, b = (op >> 5) & 7;
    switch (op & 7) {
      case 0: r[a] += r[b]; break;
      case 1: r[a] ^= mem[r[b] & (kMemWords - 1)]; break;
      case 2: mem[r[a] & (kMemWords - 1)] = r[b] + i; break;
      case 3: if (r[a] & 1) pc += 17; break;
      case 4: r[a] = (r[a] << 1) | (r[b] >> 63); break;
      case 5: r[a] -= mem[(r[b] >> 3) & (kMemWords - 1)]; break;
      case 6: if (r[a] < r[b]) pc += 5; break;
      default: r[a] *= 0x100000001B3ULL; break;
    }
    pc = (pc + 1) & (kCodeSize - 1);
  }
  return r[0] ^ r[1] ^ r[2] ^ r[3] ^ r[4] ^ r[5] ^ r[6] ^ r[7];
}

volatile u64 g_sink = 0;

}  // namespace

double calibration_slice() {
  g_sink = g_sink + interpret(kWarmSteps);
  const auto start = Clock::now();
  g_sink = g_sink + interpret(kSliceSteps);
  return seconds_between(start, Clock::now());
}

void Calibrator::after_op(double op_seconds) {
  pending_ += op_seconds;
  if (pending_ < kSliceEvery) return;
  pending_ = 0;
  slices_.push_back(calibration_slice());
}

double Calibrator::take_factor() {
  while (slices_.size() < kMinSlices) slices_.push_back(calibration_slice());
  const double factor = kReferenceSlice / median(slices_);
  slices_.clear();
  pending_ = 0;
  return factor;
}

}  // namespace perfbench
