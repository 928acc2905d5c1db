// Property tests for the N-replica group monitor:
//
//   1. A 2-replica monitor driven through the *group* hooks
//      (on_group_cycle / on_group_cycles) is bit-identical to the
//      pairwise delivery across the full batched-equivalence sweep (48
//      scenarios: depths x ports x compare x IS modes) — verdict trail,
//      counters, and serialized state bytes.
//
//   2. For N > 2, batched group delivery (on_group_cycles, chunked at
//      random boundaries) matches per-cycle on_group_cycle delivery
//      exactly: group counters, every pairwise matrix cell, per-pair
//      staggering, and snapshot bytes — including a monitor restored from
//      a mid-stream snapshot finishing the stream identically.
//
//   3. Verdict-policy lowering identities: quorum(1) == any_pair and
//      quorum(C(n,2)) == all_pairs produce byte-identical monitors, and
//      group nodiv is monotonically non-increasing in the quorum k.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "safedm/common/check.hpp"
#include "safedm/common/rng.hpp"
#include "safedm/common/state.hpp"
#include "safedm/safedm/monitor.hpp"

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

/// Per-replica frame streams with a phase schedule that covers lockstep,
/// single-replica value divergence, and independent holds (mid-chunk
/// realignment on every pair). Every replica also commits for the first
/// time late and halts before the end, each at its own cycle, and one
/// replica carries a staggering prelude, so arming, prelude consumption,
/// and halting all land mid-chunk.
struct GroupStreams {
  std::vector<std::vector<core::CoreTapFrame>> replica;  // [r][cycle]
  unsigned prelude_replica = 0;
  u64 prelude_commits = 0;

  std::vector<const core::CoreTapFrame*> bases() const {
    std::vector<const core::CoreTapFrame*> p;
    for (const auto& lane : replica) p.push_back(lane.data());
    return p;
  }

  /// Program the stream's prelude into a monitor before feeding it.
  void program(SafeDm& dm) const { dm.set_prelude_ignore(prelude_replica, prelude_commits); }
};

GroupStreams scripted_group_streams(unsigned n, u64 seed, unsigned cycles) {
  Xoshiro256 rng(seed);
  GroupStreams s;
  s.replica.resize(n);
  for (auto& lane : s.replica) lane.reserve(cycles);
  std::vector<unsigned> first_commit(n), halt_at(n);
  for (unsigned r = 0; r < n; ++r) {
    first_commit[r] = static_cast<unsigned>(rng.range(0, 150));
    halt_at[r] = cycles - static_cast<unsigned>(rng.range(1, 300));
  }
  s.prelude_replica = static_cast<unsigned>(rng.below(n));
  s.prelude_commits = rng.range(5, 60);
  for (unsigned cycle = 0; cycle < cycles; ++cycle) {
    const unsigned phase = (cycle / 400) % 4;
    const core::CoreTapFrame base = small_frame(rng);
    for (unsigned r = 0; r < n; ++r) {
      core::CoreTapFrame f = base;
      switch (phase) {
        case 0:
        case 3:
          f.hold = (cycle % 97) < 5;  // deterministic common hold
          break;
        case 1:
          f.hold = (cycle % 53) < 4;
          if (r != 0 && rng.chance(0.4)) f = small_frame(rng);  // diverge tail
          break;
        case 2:
          f.hold = rng.chance(0.3);  // independent: de-aligns every pair
          if (rng.chance(0.2)) f = small_frame(rng);
          break;
      }
      f.halted = cycle >= halt_at[r];
      if (cycle < first_commit[r] || f.halted) f.commits = 0;
      s.replica[r].push_back(f);
    }
  }
  return s;
}

std::vector<u8> monitor_bytes(const SafeDm& dm) {
  StateWriter w;
  dm.save_state(w);
  return std::move(w).take();
}

SafeDmConfig group_config(unsigned n) {
  SafeDmConfig config;
  config.num_replicas = n;
  config.data_fifo_depth = 4;
  config.num_ports = 3;
  config.start_enabled = true;
  return config;
}

void expect_same_matrix(const SafeDm& a, const SafeDm& b) {
  ASSERT_EQ(a.num_pairs(), b.num_pairs());
  for (unsigned p = 0; p < a.num_pairs(); ++p) {
    const PairCounters pa = a.pair_counters(p);
    const PairCounters pb = b.pair_counters(p);
    EXPECT_EQ(pa.nodiv_cycles, pb.nodiv_cycles) << "pair " << p;
    EXPECT_EQ(pa.ds_match_cycles, pb.ds_match_cycles) << "pair " << p;
    EXPECT_EQ(pa.is_match_cycles, pb.is_match_cycles) << "pair " << p;
    EXPECT_EQ(pa.zero_stag_cycles, pb.zero_stag_cycles) << "pair " << p;
    EXPECT_EQ(pa.distance_min, pb.distance_min) << "pair " << p;
    EXPECT_EQ(pa.distance_max, pb.distance_max) << "pair " << p;
  }
}

// ---- 1. N=2 group hooks == pairwise delivery -------------------------------

class GroupPairEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(GroupPairEquivalence, GroupHooksMatchLegacyPairwiseDelivery) {
  const Scenario& scenario = GetParam();
  SafeDmConfig config;
  config.num_replicas = 2;
  config.data_fifo_depth = scenario.depth;
  config.num_ports = scenario.ports;
  config.compare = scenario.compare;
  config.is_mode = scenario.is_mode;
  config.start_enabled = true;

  constexpr unsigned kCycles = 2000;
  const GroupStreams s =
      scripted_group_streams(2, scenario.seed * 0x9E3779B97F4A7C15ULL + 7, kCycles);

  SafeDm ref(config);  // pairwise delivery
  SafeDm grp(config);  // group hooks, random chunk sizes
  s.program(ref);
  s.program(grp);
  std::vector<bool> ref_trail, grp_trail;
  ref.set_verdict_trail(&ref_trail);
  grp.set_verdict_trail(&grp_trail);
  for (unsigned c = 0; c < kCycles; ++c) ref.on_cycle(c, s.replica[0][c], s.replica[1][c]);

  Xoshiro256 chunk_rng(scenario.seed ^ 0x6B0);
  const std::vector<const core::CoreTapFrame*> bases = s.bases();
  unsigned delivered = 0;
  while (delivered < kCycles) {
    const unsigned n =
        std::min(static_cast<unsigned>(chunk_rng.range(1, 80)), kCycles - delivered);
    if (n == 1 && chunk_rng.chance(0.5)) {
      const core::CoreTapFrame* frames[2] = {&s.replica[0][delivered],
                                             &s.replica[1][delivered]};
      grp.on_group_cycle(delivered, frames, 2);
    } else {
      const core::CoreTapFrame* frames[2] = {bases[0] + delivered, bases[1] + delivered};
      grp.on_group_cycles(delivered, frames, 2, n);
    }
    delivered += n;
  }
  ref.set_verdict_trail(nullptr);
  grp.set_verdict_trail(nullptr);

  EXPECT_EQ(ref_trail, grp_trail);
  EXPECT_EQ(ref.counters().nodiv_cycles, grp.counters().nodiv_cycles);
  EXPECT_EQ(ref.counters().zero_stag_cycles, grp.counters().zero_stag_cycles);
  EXPECT_EQ(ref.instruction_diff(), grp.instruction_diff());
  EXPECT_EQ(monitor_bytes(ref), monitor_bytes(grp));

  // The single pair *is* the group: its synthesized matrix cell must equal
  // the group counters.
  const PairCounters pc = grp.pair_counters(0);
  EXPECT_EQ(pc.nodiv_cycles, grp.counters().nodiv_cycles);
  EXPECT_EQ(pc.ds_match_cycles, grp.counters().ds_match_cycles);
  EXPECT_EQ(pc.is_match_cycles, grp.counters().is_match_cycles);
  EXPECT_EQ(pc.zero_stag_cycles, grp.counters().zero_stag_cycles);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupPairEquivalence, ::testing::ValuesIn(make_scenarios()),
                         scenario_name);

// ---- 2. N>2: batched group delivery == per-cycle group delivery ------------

struct GroupCase {
  unsigned replicas;
  CompareMode compare;
  bool track_distance;
  u64 seed;
};

std::string group_case_name(const ::testing::TestParamInfo<GroupCase>& info) {
  const GroupCase& c = info.param;
  return "r" + std::to_string(c.replicas) +
         (c.compare == CompareMode::kCrc32 ? "_crc" : "_raw") +
         (c.track_distance ? "_dist" : "") + "_s" + std::to_string(c.seed);
}

std::vector<GroupCase> make_group_cases() {
  std::vector<GroupCase> cases;
  u64 seed = 11;
  for (unsigned replicas : {3u, 4u, 5u})
    for (CompareMode compare : {CompareMode::kRaw, CompareMode::kCrc32})
      for (bool track : {false, true})
        cases.push_back(GroupCase{replicas, compare, track, seed++});
  return cases;
}

class GroupBatchedEquivalence : public ::testing::TestWithParam<GroupCase> {};

TEST_P(GroupBatchedEquivalence, MatrixCountersAndStateMatchPerCycleDelivery) {
  const GroupCase& gcase = GetParam();
  SafeDmConfig config = group_config(gcase.replicas);
  config.compare = gcase.compare;
  config.track_distance = gcase.track_distance;

  const unsigned n = gcase.replicas;
  constexpr unsigned kCycles = 2000;
  constexpr unsigned kSnapshotCycle = 900;
  const GroupStreams s = scripted_group_streams(n, gcase.seed * 0xD1B54A32D192ED03ULL, kCycles);
  const std::vector<const core::CoreTapFrame*> bases = s.bases();

  SafeDm ref(config);  // per-cycle group delivery
  SafeDm bat(config);  // batched, random chunk sizes
  s.program(ref);
  s.program(bat);
  std::vector<bool> ref_trail, bat_trail;
  ref.set_verdict_trail(&ref_trail);
  bat.set_verdict_trail(&bat_trail);
  for (unsigned c = 0; c < kCycles; ++c) {
    std::vector<const core::CoreTapFrame*> frames;
    for (unsigned r = 0; r < n; ++r) frames.push_back(&s.replica[r][c]);
    ref.on_group_cycle(c, frames.data(), n);
  }

  SafeDm restored(config);  // picks up from bat's mid-stream snapshot
  bool restored_active = false;
  Xoshiro256 chunk_rng(gcase.seed ^ 0x9A0B);
  unsigned delivered = 0;
  std::vector<const core::CoreTapFrame*> frames(n);
  while (delivered < kCycles) {
    unsigned m = static_cast<unsigned>(
        chunk_rng.chance(0.1) ? chunk_rng.range(65, 100) : chunk_rng.range(1, 32));
    if (delivered < kSnapshotCycle) m = std::min(m, kSnapshotCycle - delivered);
    m = std::min(m, kCycles - delivered);
    for (unsigned r = 0; r < n; ++r) frames[r] = bases[r] + delivered;
    bat.on_group_cycles(delivered, frames.data(), n, m);
    if (restored_active) restored.on_group_cycles(delivered, frames.data(), n, m);
    delivered += m;

    if (delivered == kSnapshotCycle && !restored_active) {
      const std::vector<u8> mid = monitor_bytes(bat);
      StateReader r(mid);
      restored.restore_state(r);
      restored_active = true;
    }
  }
  ref.set_verdict_trail(nullptr);
  bat.set_verdict_trail(nullptr);

  ASSERT_EQ(ref_trail.size(), bat_trail.size());
  for (std::size_t i = 0; i < ref_trail.size(); ++i)
    ASSERT_EQ(ref_trail[i], bat_trail[i]) << "cycle " << i;

  const auto& cr = ref.counters();
  const auto& cb = bat.counters();
  EXPECT_EQ(cr.monitored_cycles, cb.monitored_cycles);
  EXPECT_EQ(cr.nodiv_cycles, cb.nodiv_cycles);
  EXPECT_EQ(cr.ds_match_cycles, cb.ds_match_cycles);
  EXPECT_EQ(cr.is_match_cycles, cb.is_match_cycles);
  EXPECT_EQ(cr.zero_stag_cycles, cb.zero_stag_cycles);
  EXPECT_EQ(cr.distance_min, cb.distance_min);
  EXPECT_EQ(cr.distance_max, cb.distance_max);
  expect_same_matrix(ref, bat);
  EXPECT_EQ(ref.instruction_diff(), bat.instruction_diff());

  const std::vector<u8> want = monitor_bytes(ref);
  EXPECT_EQ(want, monitor_bytes(bat));
  EXPECT_EQ(want, monitor_bytes(restored));
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupBatchedEquivalence,
                         ::testing::ValuesIn(make_group_cases()), group_case_name);

// ---- 3. verdict-policy lowering identities ---------------------------------

void pump_group(SafeDm& dm, const GroupStreams& s, unsigned n, unsigned cycles) {
  s.program(dm);
  const std::vector<const core::CoreTapFrame*> bases = s.bases();
  std::vector<const core::CoreTapFrame*> frames(n);
  for (unsigned at = 0; at < cycles; at += 37) {
    const unsigned m = std::min(37u, cycles - at);
    for (unsigned r = 0; r < n; ++r) frames[r] = bases[r] + at;
    dm.on_group_cycles(at, frames.data(), n, m);
  }
}

TEST(GroupVerdictPolicy, QuorumOneEqualsAnyPairExactly) {
  for (const unsigned n : {3u, 4u, 8u}) {
    constexpr unsigned kCycles = 1500;
    const GroupStreams s = scripted_group_streams(n, 0xA11 + n, kCycles);

    SafeDmConfig any = group_config(n);
    any.policy = VerdictPolicy::kAnyPair;
    SafeDmConfig quorum = group_config(n);
    quorum.policy = VerdictPolicy::kQuorum;
    quorum.quorum_k = 1;

    SafeDm dm_any(any), dm_quorum(quorum);
    pump_group(dm_any, s, n, kCycles);
    pump_group(dm_quorum, s, n, kCycles);
    EXPECT_EQ(dm_any.verdict_threshold(), dm_quorum.verdict_threshold()) << "n=" << n;
    EXPECT_EQ(monitor_bytes(dm_any), monitor_bytes(dm_quorum)) << "n=" << n;
  }
}

TEST(GroupVerdictPolicy, QuorumAllPairsEqualsAllPairsExactly) {
  for (const unsigned n : {3u, 4u, 8u}) {
    const unsigned n_pairs = n * (n - 1) / 2;
    constexpr unsigned kCycles = 1500;
    const GroupStreams s = scripted_group_streams(n, 0xA22 + n, kCycles);

    SafeDmConfig all = group_config(n);
    all.policy = VerdictPolicy::kAllPairs;
    SafeDmConfig quorum = group_config(n);
    quorum.policy = VerdictPolicy::kQuorum;
    quorum.quorum_k = n_pairs;

    SafeDm dm_all(all), dm_quorum(quorum);
    pump_group(dm_all, s, n, kCycles);
    pump_group(dm_quorum, s, n, kCycles);
    EXPECT_EQ(dm_all.verdict_threshold(), n_pairs) << "n=" << n;
    EXPECT_EQ(monitor_bytes(dm_all), monitor_bytes(dm_quorum)) << "n=" << n;
  }
}

TEST(GroupVerdictPolicy, GroupNodivMonotonicallyNonIncreasingInQuorumK) {
  const unsigned n = 4;
  const unsigned n_pairs = n * (n - 1) / 2;
  constexpr unsigned kCycles = 1500;
  const GroupStreams s = scripted_group_streams(n, 0xA33, kCycles);

  u64 previous = ~u64{0};
  for (unsigned k = 1; k <= n_pairs; ++k) {
    SafeDmConfig config = group_config(n);
    config.policy = VerdictPolicy::kQuorum;
    config.quorum_k = k;
    SafeDm dm(config);
    pump_group(dm, s, n, kCycles);
    EXPECT_LE(dm.counters().nodiv_cycles, previous) << "k=" << k;
    previous = dm.counters().nodiv_cycles;
  }
}

// Constructor contract: replica counts and quorum bounds are validated.
TEST(GroupVerdictPolicy, RejectsInvalidShapes) {
  SafeDmConfig config = group_config(1);
  EXPECT_THROW(SafeDm{config}, CheckError);
  config = group_config(9);
  EXPECT_THROW(SafeDm{config}, CheckError);
  config = group_config(3);
  config.policy = VerdictPolicy::kQuorum;
  config.quorum_k = 0;
  EXPECT_THROW(SafeDm{config}, CheckError);
  config.quorum_k = 4;  // C(3,2) == 3
  EXPECT_THROW(SafeDm{config}, CheckError);
  config.quorum_k = 3;
  EXPECT_NO_THROW(SafeDm{config});
}

}  // namespace
}  // namespace safedm::monitor
