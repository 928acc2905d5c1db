// Property test: SafeDm::on_cycles (chunked delivery) is bit-identical to
// per-cycle on_cycle delivery — same verdict trail, same counters, same
// IRQ timing, and byte-identical serialized state — no matter where the
// batch boundaries fall, which compare kernel runs, or whether a
// snapshot/restore lands mid-stream. Scenarios sweep compare modes, IS
// modes, port counts 1-3, and depths {4, 8, 64, 128}; raw per-stage
// compare at depth <= 64 runs the monitor kernel's plane strategy on
// chunks, everything else its capture strategy, and both must be just as
// boundary-independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "safedm/common/rng.hpp"
#include "safedm/common/state.hpp"
#include "safedm/safedm/monitor.hpp"
#include "safedm/safedm/simd.hpp"
#include "safedm/soc/soc.hpp"
#include "safedm/workloads/workloads.hpp"

namespace safedm::monitor {
namespace {

struct Scenario {
  unsigned depth;
  unsigned ports;
  CompareMode compare;
  IsMode is_mode;
  u64 seed;
};

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  return "n" + std::to_string(s.depth) + "_m" + std::to_string(s.ports) +
         (s.compare == CompareMode::kCrc32 ? "_crc" : "_raw") +
         (s.is_mode == IsMode::kFlatList ? "_flat" : "_perstage") + "_s" +
         std::to_string(s.seed);
}

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> scenarios;
  u64 seed = 1;
  for (unsigned depth : {4u, 8u, 64u, 128u})
    for (unsigned ports : {1u, 2u, 3u})
      for (CompareMode compare : {CompareMode::kRaw, CompareMode::kCrc32})
        for (IsMode is_mode : {IsMode::kPerStage, IsMode::kFlatList})
          scenarios.push_back(Scenario{depth, ports, compare, is_mode, seed++});
  return scenarios;
}

SafeDmConfig scenario_config(const Scenario& s) {
  SafeDmConfig config;
  config.data_fifo_depth = s.depth;
  config.num_ports = s.ports;
  config.compare = s.compare;
  config.is_mode = s.is_mode;
  config.start_enabled = true;
  config.arm_on_first_commit = true;
  return config;
}

core::CoreTapFrame small_frame(Xoshiro256& rng) {
  core::CoreTapFrame f;
  for (unsigned s = 0; s < core::kPipelineStages; ++s)
    for (unsigned l = 0; l < core::kMaxIssueWidth; ++l)
      f.stage[s][l] = core::StageSlotTap{rng.chance(0.7), static_cast<u32>(rng.below(3))};
  for (unsigned p = 0; p < core::kMaxPorts; ++p)
    f.port[p] = core::PortTap{rng.chance(0.5), rng.below(2)};
  f.commits = static_cast<unsigned>(rng.below(3));
  return f;
}

/// The comparator-equivalence phase schedule: lockstep, value-divergent,
/// independently held (realignment mid-chunk), lockstep again.
std::pair<core::CoreTapFrame, core::CoreTapFrame> scripted_pair(Xoshiro256& rng,
                                                               unsigned cycle) {
  const unsigned phase = (cycle / 500) % 4;
  core::CoreTapFrame f0 = small_frame(rng);
  core::CoreTapFrame f1 = f0;
  switch (phase) {
    case 0:
    case 3:
      f0.hold = f1.hold = rng.chance(0.2);
      break;
    case 1:
      f0.hold = f1.hold = rng.chance(0.2);
      if (rng.chance(0.5)) f1 = small_frame(rng);
      break;
    case 2:
      f0.hold = rng.chance(0.3);
      f1.hold = rng.chance(0.3);  // independent: forces mid-chunk realigns
      if (rng.chance(0.2)) f1 = small_frame(rng);
      break;
  }
  return {f0, f1};
}

/// Frame streams for both cores, pre-generated so batched and per-cycle
/// monitors consume the exact same cycles.
struct Streams {
  std::vector<core::CoreTapFrame> f0;
  std::vector<core::CoreTapFrame> f1;
};

Streams scripted_streams(u64 seed, unsigned cycles) {
  Xoshiro256 rng(seed);
  Streams s;
  s.f0.reserve(cycles);
  s.f1.reserve(cycles);
  for (unsigned cycle = 0; cycle < cycles; ++cycle) {
    auto [f0, f1] = scripted_pair(rng, cycle);
    s.f0.push_back(f0);
    s.f1.push_back(f1);
  }
  return s;
}

std::vector<u8> monitor_bytes(const SafeDm& dm) {
  StateWriter w;
  dm.save_state(w);
  return std::move(w).take();
}

class BatchedEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(BatchedEquivalence, TrailCountersAndStateMatchPerCycleDelivery) {
  const Scenario& scenario = GetParam();
  const SafeDmConfig config = scenario_config(scenario);

  constexpr unsigned kCycles = 3000;
  constexpr unsigned kSnapshotCycle = 1500;
  const Streams s = scripted_streams(scenario.seed * 0x9E3779B97F4A7C15ULL + 99, kCycles);

  SafeDm ref(config);  // per-cycle reference
  SafeDm bat(config);  // batched, random chunk sizes
  std::vector<bool> ref_trail, bat_trail;
  ref.set_verdict_trail(&ref_trail);
  bat.set_verdict_trail(&bat_trail);
  for (unsigned cycle = 0; cycle < kCycles; ++cycle)
    ref.on_cycle(cycle, s.f0[cycle], s.f1[cycle]);

  // Deliver the identical stream to `bat` in randomly sized batches
  // (occasionally longer than the 64-cycle internal chunk), checking the
  // trail after every delivery. Chunk edges align with kSnapshotCycle once
  // so both monitors can be serialized at the same mid-stream point.
  SafeDm restored(config);  // picks up from bat's mid-stream snapshot
  bool restored_active = false;
  Xoshiro256 chunk_rng(scenario.seed ^ 0xBA7C4);
  unsigned delivered = 0;
  while (delivered < kCycles) {
    unsigned n = static_cast<unsigned>(
        chunk_rng.chance(0.1) ? chunk_rng.range(65, 100) : chunk_rng.range(1, 32));
    if (delivered < kSnapshotCycle) n = std::min(n, kSnapshotCycle - delivered);
    n = std::min(n, kCycles - delivered);
    bat.on_cycles(delivered, &s.f0[delivered], &s.f1[delivered], n);
    if (restored_active) restored.on_cycles(delivered, &s.f0[delivered], &s.f1[delivered], n);
    delivered += n;

    ASSERT_EQ(bat_trail.size(), delivered);
    for (std::size_t i = delivered - n; i < delivered; ++i)
      ASSERT_EQ(bat_trail[i], ref_trail[i]) << "cycle " << i;

    if (delivered == kSnapshotCycle && !restored_active) {
      // Mid-stream snapshot: the batched monitor's bytes must already be
      // indistinguishable from per-cycle delivery, and a monitor restored
      // from them must finish the stream identically.
      const std::vector<u8> mid = monitor_bytes(bat);
      SafeDm mid_ref(config);
      for (unsigned c = 0; c < kSnapshotCycle; ++c)
        mid_ref.on_cycle(c, s.f0[c], s.f1[c]);
      ASSERT_EQ(mid, monitor_bytes(mid_ref));
      StateReader r(mid);
      restored.restore_state(r);
      restored_active = true;
    }
  }

  ref.set_verdict_trail(nullptr);
  bat.set_verdict_trail(nullptr);

  const auto& cr = ref.counters();
  const auto& cb = bat.counters();
  EXPECT_EQ(cr.monitored_cycles, cb.monitored_cycles);
  EXPECT_EQ(cr.nodiv_cycles, cb.nodiv_cycles);
  EXPECT_EQ(cr.ds_match_cycles, cb.ds_match_cycles);
  EXPECT_EQ(cr.is_match_cycles, cb.is_match_cycles);
  EXPECT_EQ(cr.zero_stag_cycles, cb.zero_stag_cycles);
  EXPECT_EQ(ref.instruction_diff(), bat.instruction_diff());

  const std::vector<u8> want = monitor_bytes(ref);
  EXPECT_EQ(want, monitor_bytes(bat));
  EXPECT_EQ(want, monitor_bytes(restored));

  // The plane-strategy configurations must keep every pair on the
  // comparator's incremental steps (fast updates dominate once armed).
  if (config.compare == CompareMode::kRaw && config.is_mode == IsMode::kPerStage &&
      config.data_fifo_depth <= 64) {
    EXPECT_GT(bat.comparator_stats().fast_updates, 1000u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchedEquivalence, ::testing::ValuesIn(make_scenarios()),
                         scenario_name);

// Every compare kernel the host supports must produce byte-identical
// monitor state, batched and per-cycle alike.
TEST(BatchedKernelSweep, AllSupportedKernelsProduceIdenticalState) {
  SafeDmConfig config;
  config.data_fifo_depth = 4;
  config.num_ports = 3;
  config.start_enabled = true;

  constexpr unsigned kCycles = 2000;
  const Streams s = scripted_streams(0x5EED'00C0, kCycles);

  const simd::Kernel previous = simd::active_kernel();
  std::vector<u8> want;
  for (simd::Kernel kernel :
       {simd::Kernel::kPortable, simd::Kernel::kSse2, simd::Kernel::kAvx2}) {
    if (!simd::kernel_supported(kernel)) continue;
    ASSERT_EQ(simd::force_kernel(kernel), kernel);

    SafeDm ref(config);
    SafeDm bat(config);
    for (unsigned c = 0; c < kCycles; ++c) ref.on_cycle(c, s.f0[c], s.f1[c]);
    for (unsigned at = 0; at < kCycles; at += 17)
      bat.on_cycles(at, &s.f0[at], &s.f1[at], std::min(17u, kCycles - at));

    const std::vector<u8> ref_bytes = monitor_bytes(ref);
    EXPECT_EQ(ref_bytes, monitor_bytes(bat)) << simd::kernel_name(kernel);
    if (want.empty()) want = ref_bytes;
    EXPECT_EQ(want, ref_bytes) << simd::kernel_name(kernel) << " vs first kernel";
  }
  simd::force_kernel(previous);
}

// IRQ timing: interrupts must fire at the exact same cycles (observed
// through the handler) under batched delivery, in both interrupt report
// modes. Both monitors advance in lockstep chunk-by-chunk; a pending IRQ
// is cleared on both at the chunk boundary so several interrupts fire.
// The handler may also act on the monitor itself, as an RTOS hook does:
// clearing the latch (so the IRQ re-fires mid-chunk) or resetting the
// monitor, and batched delivery must honour that from the next cycle on.
enum class HandlerAction { kRecord, kClear, kReset };

TEST(BatchedIrqTiming, HandlerSeesIdenticalCycles) {
  for (const auto& [report, action] :
       {std::pair{ReportMode::kInterruptFirst, HandlerAction::kRecord},
        std::pair{ReportMode::kInterruptThreshold, HandlerAction::kRecord},
        std::pair{ReportMode::kInterruptThreshold, HandlerAction::kClear},
        std::pair{ReportMode::kInterruptThreshold, HandlerAction::kReset}}) {
    SafeDmConfig config;
    config.data_fifo_depth = 4;
    config.num_ports = 3;
    config.start_enabled = true;
    config.report = report;
    config.interrupt_threshold = 50;

    constexpr unsigned kCycles = 3000;
    const Streams s = scripted_streams(0x12C0 + static_cast<u64>(report), kCycles);

    SafeDm ref(config);
    SafeDm bat(config);
    std::vector<u64> ref_irqs, bat_irqs;
    const auto handler = [action = action](SafeDm& dm, std::vector<u64>& irqs) {
      return [&dm, &irqs, action](u64 cycle) {
        irqs.push_back(cycle);
        if (action == HandlerAction::kClear) dm.clear_interrupt();
        if (action == HandlerAction::kReset) dm.reset();
      };
    };
    ref.set_interrupt_handler(handler(ref, ref_irqs));
    bat.set_interrupt_handler(handler(bat, bat_irqs));

    Xoshiro256 chunk_rng(0xC41C);
    unsigned delivered = 0;
    while (delivered < kCycles) {
      const unsigned n =
          std::min(static_cast<unsigned>(chunk_rng.range(1, 32)), kCycles - delivered);
      for (unsigned c = delivered; c < delivered + n; ++c) ref.on_cycle(c, s.f0[c], s.f1[c]);
      bat.on_cycles(delivered, &s.f0[delivered], &s.f1[delivered], n);
      delivered += n;

      ASSERT_EQ(ref.interrupt_pending(), bat.interrupt_pending()) << "at cycle " << delivered;
      if (ref.interrupt_pending()) {
        ref.clear_interrupt();
        bat.clear_interrupt();
      }
    }
    EXPECT_EQ(ref_irqs, bat_irqs) << "report mode " << static_cast<int>(report) << " action "
                                  << static_cast<int>(action);
    EXPECT_GT(ref_irqs.size(), 1u) << "schedule should re-fire after clears";
    EXPECT_EQ(ref.counters().interrupts, bat.counters().interrupts);
    EXPECT_EQ(monitor_bytes(ref), monitor_bytes(bat));
  }
}

// SoC-level equivalence on a real workload: observer_batch 8 must leave
// the monitor and the SoC snapshot bytes identical to per-cycle delivery,
// including a snapshot taken mid-batch (auto-flush) and a third rig
// restored from it.
TEST(SocObserverBatch, SnapshotAndFinalStateMatchPerCycleDelivery) {
  soc::SocConfig cfg1;
  soc::SocConfig cfg8;
  cfg8.observer_batch = 8;
  SafeDmConfig dmc;
  dmc.start_enabled = true;

  soc::MpSoc soc1{cfg1};
  soc::MpSoc soc8{cfg8};
  SafeDm dm1(dmc);
  SafeDm dm8(dmc);
  soc1.add_observer(&dm1);
  soc8.add_observer(&dm8);

  const assembler::Program program = workloads::build("bitcount", 1);
  soc1.load_redundant(program);
  soc8.load_redundant(program);

  // 1003 steps: soc8 has pending undelivered cycles (1003 % 8 != 0), so
  // this snapshot exercises the mid-batch auto-flush.
  for (int i = 0; i < 1003; ++i) {
    soc1.step();
    soc8.step();
  }
  StateWriter w1;
  soc1.save_state(w1);
  dm1.save_state(w1);
  const std::vector<u8> mid = std::move(w1).take();
  StateWriter w8;
  soc8.save_state(w8);
  dm8.save_state(w8);
  ASSERT_EQ(mid, std::move(w8).take());

  // Restore a fresh batched rig from the per-cycle rig's mid-run bytes.
  soc::MpSoc socr{cfg8};
  SafeDm dmr(dmc);
  socr.add_observer(&dmr);
  socr.load_redundant(program);
  {
    StateReader r(mid);
    socr.restore_state(r);
    dmr.restore_state(r);
  }

  soc1.run(30'000'000);
  soc8.run(30'000'000);
  socr.run(30'000'000);
  ASSERT_TRUE(soc1.all_halted());
  ASSERT_TRUE(soc8.all_halted());
  ASSERT_TRUE(socr.all_halted());
  ASSERT_EQ(soc1.cycle(), soc8.cycle());
  ASSERT_EQ(soc1.cycle(), socr.cycle());

  EXPECT_EQ(dm1.counters().monitored_cycles, dm8.counters().monitored_cycles);
  EXPECT_EQ(dm1.counters().nodiv_cycles, dm8.counters().nodiv_cycles);

  const auto rig_bytes = [](const soc::MpSoc& soc, const SafeDm& dm) {
    StateWriter w;
    soc.save_state(w);
    dm.save_state(w);
    return std::move(w).take();
  };
  const std::vector<u8> want = rig_bytes(soc1, dm1);
  EXPECT_EQ(want, rig_bytes(soc8, dm8));
  EXPECT_EQ(want, rig_bytes(socr, dmr));
}

}  // namespace
}  // namespace safedm::monitor
