// Property test: the incremental DiversityComparator's per-cycle verdicts
// (DS match, IS match, nodiv) are bit-identical to the exhaustive
// data_equal / instruction_equal oracle on randomized workloads with
// independent per-core hold and stagger sequences, across raw and CRC
// compare modes and both IS modes.
//
// The frame streams are scripted through phases that exercise every
// comparator path: lockstep-identical frames (all-match fast path),
// value-divergent frames, independently held pipelines (window
// de-alignment -> realignment scans), and re-convergence (identical
// samples refill both windows at different ring phases). Values are drawn
// from a tiny alphabet so coincidental matches are frequent.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "safedm/common/rng.hpp"
#include "safedm/safedm/comparator.hpp"
#include "safedm/safedm/monitor.hpp"
#include "safedm/safedm/signature.hpp"

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
  // 64 and 128 cover the single-word mask boundary and the multi-word
  // widening beyond it.
  for (unsigned depth : {1u, 2u, 3u, 4u, 8u, 16u, 64u, 128u})
    for (CompareMode compare : {CompareMode::kRaw, CompareMode::kCrc32})
      for (IsMode is_mode : {IsMode::kPerStage, IsMode::kFlatList})
        scenarios.push_back(Scenario{depth, depth % 2 ? 3u : 4u, compare, is_mode, seed++});
  return scenarios;
}

class ComparatorEquivalence : public ::testing::TestWithParam<Scenario> {};

// Frames with values from a tiny alphabet: coincidental cross-core matches
// and partial-window matches happen constantly.
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

TEST_P(ComparatorEquivalence, VerdictMatchesOracleEveryCycle) {
  const Scenario& scenario = GetParam();
  SafeDmConfig config;
  config.data_fifo_depth = scenario.depth;
  config.num_ports = scenario.ports;
  config.compare = scenario.compare;
  config.is_mode = scenario.is_mode;

  SignatureGenerator a(config), b(config);
  DiversityComparator comparator(a, b);
  Xoshiro256 rng(scenario.seed * 0x9E3779B97F4A7C15ULL + 7);

  constexpr int kCycles = 4000;
  // Phase schedule, one per 500 cycles: 0=lockstep 1=divergent values
  // 2=divergent holds 3=lockstep again (re-convergence), repeating.
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const int phase = (cycle / 500) % 4;
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
        f1.hold = rng.chance(0.3);  // independent: de-aligns FIFO phases
        if (rng.chance(0.2)) f1 = small_frame(rng);
        break;
    }
    a.capture(f0);
    b.capture(f1);
    comparator.update();

    // Oracle: exhaustive whole-signature comparison. In CRC mode the
    // comparator compares compressed signatures; with 32-bit CRCs a
    // verdict disagreement requires a hash collision, which these
    // deterministic streams do not contain.
    const bool oracle_ds = SignatureGenerator::data_equal(a, b);
    const bool oracle_is = SignatureGenerator::instruction_equal(a, b);
    ASSERT_EQ(comparator.ds_match(), oracle_ds)
        << "cycle " << cycle << " phase " << phase << " " << scenario_name({GetParam(), 0});
    ASSERT_EQ(comparator.is_match(), oracle_is)
        << "cycle " << cycle << " phase " << phase;
  }

  // The schedule must actually have exercised both the fast path and the
  // realignment fallback (and, when depth > 1, reused held cycles).
  const auto& stats = comparator.stats();
  EXPECT_GT(stats.fast_updates, 0u);
  EXPECT_GT(stats.realign_scans, 0u);
  EXPECT_GT(stats.hold_reuses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ComparatorEquivalence, ::testing::ValuesIn(make_scenarios()),
                         scenario_name);

// Regression: data_fifo_depth > 64 used to silently fall off the
// incremental fast path (the mismatch mask was a single u64, so every
// aligned cycle degraded to an exhaustive compare). With multi-word masks
// every aligned shift must count as a fast update and none as a realign.
TEST(ComparatorDeepFifo, Depth128StaysOnTheIncrementalFastPath) {
  SafeDmConfig config;
  config.data_fifo_depth = 128;
  config.num_ports = 3;
  config.compare = CompareMode::kRaw;
  config.is_mode = IsMode::kPerStage;

  SignatureGenerator a(config), b(config);
  DiversityComparator comparator(a, b);
  Xoshiro256 rng(0xD128'F1F0);

  constexpr u64 kCycles = 2000;
  for (u64 cycle = 0; cycle < kCycles; ++cycle) {
    core::CoreTapFrame f0 = small_frame(rng);
    core::CoreTapFrame f1 = rng.chance(0.5) ? f0 : small_frame(rng);
    f0.hold = f1.hold = false;  // aligned: every cycle is fast-path eligible
    a.capture(f0);
    b.capture(f1);
    comparator.update();
    ASSERT_EQ(comparator.ds_match(), SignatureGenerator::data_equal(a, b)) << "cycle " << cycle;
  }
  const auto& stats = comparator.stats();
  EXPECT_EQ(stats.fast_updates, kCycles);
  EXPECT_EQ(stats.realign_scans, 0u);
}

// Monitor-level equivalence: the monitor kernel (incremental compare, fed
// in random chunk sizes) and the exhaustive per-cycle reference step, fed
// the same random N-replica stream (including a mid-stream reset), must
// agree on every per-chunk flag, the verdict trail, the interrupt cycles,
// the group counters, and every cell of the pairwise matrix.
TEST(SafeDmIncrementalEquivalence, CountersMatchExhaustivePath) {
  for (const unsigned n : {2u, 3u, 8u}) {
    for (const CompareMode compare : {CompareMode::kRaw, CompareMode::kCrc32}) {
      for (const IsMode is_mode : {IsMode::kPerStage, IsMode::kFlatList}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " compare=" +
                     std::to_string(static_cast<int>(compare)) +
                     " is_mode=" + std::to_string(static_cast<int>(is_mode)));
        SafeDmConfig config;
        config.num_replicas = n;
        config.data_fifo_depth = 4;
        config.num_ports = 3;
        config.compare = compare;
        config.is_mode = is_mode;
        config.start_enabled = true;
        config.arm_on_first_commit = true;
        config.report = ReportMode::kInterruptThreshold;
        config.interrupt_threshold = 25;
        SafeDmConfig exhaustive_config = config;
        exhaustive_config.incremental_compare = false;

        SafeDm incremental(config);
        SafeDm exhaustive(exhaustive_config);
        std::vector<bool> inc_trail, exh_trail;
        std::vector<u64> inc_irqs, exh_irqs;
        incremental.set_verdict_trail(&inc_trail);
        exhaustive.set_verdict_trail(&exh_trail);
        incremental.set_interrupt_handler([&](u64 cycle) { inc_irqs.push_back(cycle); });
        exhaustive.set_interrupt_handler([&](u64 cycle) { exh_irqs.push_back(cycle); });

        constexpr unsigned kCycles = 3000;
        constexpr unsigned kResetAt = 1500;  // mid-stream reset must resync the comparators
        Xoshiro256 rng(0xC0FFEE + n * 4 + static_cast<u64>(compare) * 2 +
                       static_cast<u64>(is_mode));
        std::vector<std::vector<core::CoreTapFrame>> lanes(n);
        for (unsigned c = 0; c < kCycles; ++c) {
          const core::CoreTapFrame base = small_frame(rng);
          for (unsigned r = 0; r < n; ++r) {
            core::CoreTapFrame f = r == 0 || rng.chance(0.6) ? base : small_frame(rng);
            f.hold = rng.chance(r == 0 ? 0.2 : 0.25);
            lanes[r].push_back(f);
          }
        }

        std::vector<const core::CoreTapFrame*> frames(n);
        unsigned at = 0;
        while (at < kCycles) {
          unsigned m = static_cast<unsigned>(rng.range(1, 40));
          if (at < kResetAt) m = std::min(m, kResetAt - at);
          m = std::min(m, kCycles - at);
          for (unsigned r = 0; r < n; ++r) frames[r] = lanes[r].data() + at;
          incremental.on_group_cycles(at, frames.data(), n, m);
          exhaustive.on_group_cycles(at, frames.data(), n, m);
          at += m;
          ASSERT_EQ(incremental.lacking_diversity_now(), exhaustive.lacking_diversity_now())
              << "cycle " << at;
          ASSERT_EQ(incremental.ds_matched_now(), exhaustive.ds_matched_now()) << "cycle " << at;
          ASSERT_EQ(incremental.is_matched_now(), exhaustive.is_matched_now()) << "cycle " << at;
          if (at == kResetAt) {
            incremental.reset();
            exhaustive.reset();
          }
        }
        incremental.finalize();
        exhaustive.finalize();

        EXPECT_EQ(inc_trail, exh_trail);
        EXPECT_EQ(inc_irqs, exh_irqs);
        EXPECT_FALSE(inc_irqs.empty());
        const auto& ci = incremental.counters();
        const auto& ce = exhaustive.counters();
        EXPECT_EQ(ci.monitored_cycles, ce.monitored_cycles);
        EXPECT_EQ(ci.nodiv_cycles, ce.nodiv_cycles);
        EXPECT_EQ(ci.ds_match_cycles, ce.ds_match_cycles);
        EXPECT_EQ(ci.is_match_cycles, ce.is_match_cycles);
        EXPECT_EQ(ci.zero_stag_cycles, ce.zero_stag_cycles);
        EXPECT_EQ(ci.interrupts, ce.interrupts);
        EXPECT_GT(ci.nodiv_cycles, 0u);
        for (unsigned p = 0; p < incremental.num_pairs(); ++p) {
          const PairCounters pi = incremental.pair_counters(p);
          const PairCounters pe = exhaustive.pair_counters(p);
          EXPECT_EQ(pi.nodiv_cycles, pe.nodiv_cycles) << "pair " << p;
          EXPECT_EQ(pi.ds_match_cycles, pe.ds_match_cycles) << "pair " << p;
          EXPECT_EQ(pi.is_match_cycles, pe.is_match_cycles) << "pair " << p;
          EXPECT_EQ(pi.zero_stag_cycles, pe.zero_stag_cycles) << "pair " << p;
        }
      }
    }
  }
}

}  // namespace
}  // namespace safedm::monitor
