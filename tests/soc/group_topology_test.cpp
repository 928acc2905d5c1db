// Redundancy-group topology: construction contract (the default is one
// pair; explicit groups cover 2..8 replicas each, at most 8 cores total;
// decorrelation offsets validated against the platform strides)
// plus the per-replica decorrelation transforms observable through the
// loaded SoC — distinct text bases, data bases, stack tops, and
// shuffled-but-equivalent replica images.
#include <gtest/gtest.h>

#include "safedm/common/check.hpp"
#include "safedm/safedm/monitor.hpp"
#include "safedm/soc/soc.hpp"
#include "safedm/workloads/workloads.hpp"

namespace safedm::soc {
namespace {

TEST(GroupTopology, ExplicitGroupShapeContract) {
  // No explicit groups: the paper's single pair.
  {
    MpSoc soc{SocConfig{}};
    EXPECT_EQ(soc.num_cores(), 2u);
    EXPECT_EQ(soc.num_groups(), 1u);
    EXPECT_EQ(soc.group_size(0), 2u);
  }
  // Replica counts outside [2, 8] are rejected.
  for (const unsigned bad : {0u, 1u, 9u}) {
    SocConfig config;
    config.groups = {GroupSpec::homogeneous(bad == 0 ? 2 : bad)};
    if (bad == 0) config.groups[0].replicas.clear();
    EXPECT_THROW(MpSoc{config}, CheckError) << "group size " << bad;
  }
  // The topology may cover at most 8 cores in total.
  {
    SocConfig config;
    config.groups = {GroupSpec::homogeneous(5), GroupSpec::homogeneous(4)};
    EXPECT_THROW(MpSoc{config}, CheckError);
  }
  // 3 + 5 = 8 is fine, and the core count follows from the groups.
  {
    SocConfig config;
    config.groups = {GroupSpec::homogeneous(3), GroupSpec::homogeneous(5)};
    MpSoc soc(config);
    EXPECT_EQ(soc.num_cores(), 8u);
    EXPECT_EQ(soc.num_groups(), 2u);
    EXPECT_EQ(soc.group_size(0), 3u);
    EXPECT_EQ(soc.group_size(1), 5u);
    EXPECT_EQ(soc.group_core(1, 0), 3u);
    EXPECT_EQ(soc.group_core(1, 4), 7u);
  }
}

TEST(GroupTopology, DecorrelationOffsetsValidatedAtConstruction) {
  const SocConfig defaults;
  // Misaligned text offset.
  {
    SocConfig config;
    config.groups = {GroupSpec::homogeneous(2)};
    config.groups[0].replicas[1].text_offset = 2;
    EXPECT_THROW(MpSoc{config}, CheckError);
  }
  // Text offset overflowing the per-replica text stride.
  {
    SocConfig config;
    config.groups = {GroupSpec::homogeneous(2)};
    config.groups[0].replicas[1].text_offset = defaults.text_stride;
    EXPECT_THROW(MpSoc{config}, CheckError);
  }
  // Misaligned data / stack offsets.
  {
    SocConfig config;
    config.groups = {GroupSpec::homogeneous(2)};
    config.groups[0].replicas[1].data_offset = 8;
    EXPECT_THROW(MpSoc{config}, CheckError);
  }
  {
    SocConfig config;
    config.groups = {GroupSpec::homogeneous(2)};
    config.groups[0].replicas[1].stack_offset = 4;
    EXPECT_THROW(MpSoc{config}, CheckError);
  }
  // Two replicas sharing a text window slot (same text_offset) must share
  // one image, hence one shuffle seed.
  {
    SocConfig config;
    config.groups = {GroupSpec::homogeneous(3)};
    config.groups[0].replicas[1].reg_shuffle_seed = 7;  // same text_offset as replica 0
    EXPECT_THROW(MpSoc{config}, CheckError);
  }
  // The same seed difference is fine once the replicas occupy distinct
  // text slots.
  {
    SocConfig config;
    config.groups = {GroupSpec::homogeneous(3)};
    config.groups[0].replicas[1].text_offset = 0x400;
    config.groups[0].replicas[1].reg_shuffle_seed = 7;
    EXPECT_NO_THROW(MpSoc{config});
  }
}

TEST(GroupTopology, DecorrelatedTripleRunsToCompletion) {
  SocConfig config;
  GroupSpec group = GroupSpec::homogeneous(3);
  group.replicas[1].text_offset = 0x400;
  group.replicas[1].data_offset = 0x100;
  group.replicas[1].stack_offset = 0x40;
  group.replicas[1].reg_shuffle_seed = 0x5AFE;
  group.replicas[2].text_offset = 0x800;
  group.replicas[2].reg_shuffle_seed = 0xBEEF;
  config.groups = {group};
  MpSoc soc(config);

  monitor::SafeDmConfig dm_config;
  dm_config.num_replicas = 3;
  dm_config.start_enabled = true;
  monitor::SafeDm dm(dm_config);
  soc.add_observer(&dm);

  soc.load_redundant(workloads::build("bitcount", 1));
  soc.run(20'000'000);
  dm.finalize();
  ASSERT_TRUE(soc.all_halted());

  // The register shuffle is purely syntactic: every replica commits the
  // same instruction count (minus any nop prelude, zero here).
  const u64 committed0 = soc.core(0).stats().committed;
  EXPECT_EQ(committed0, soc.core(1).stats().committed);
  EXPECT_EQ(committed0, soc.core(2).stats().committed);
  EXPECT_GT(committed0, 0u);
  EXPECT_GT(dm.counters().monitored_cycles, 0u);

  // Decorrelated replicas land on distinct data bases.
  EXPECT_NE(soc.data_base(0), soc.data_base(1));
}

}  // namespace
}  // namespace safedm::soc
