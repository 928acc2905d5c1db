// Snapshot round-trip property: run a program to a random cycle, snapshot
// the SoC + monitor, and let a restored copy continue in parallel with the
// original. The restored instance must be *forward bit-identical* — every
// tap frame of every remaining cycle, every SafeDM verdict and counter,
// and the final result checksums must match the uninterrupted run (the
// restored-forward equivalence invariant of DESIGN.md §5b, which the
// checkpoint-forked fault campaign stands on).
//
// Also covers the rejection paths at the snapshot level: truncated
// streams, corrupted section versions, and restoring into an SoC built
// from a different configuration must all throw StateError.
#include <gtest/gtest.h>

#include "safedm/assembler/assembler.hpp"
#include "safedm/common/rng.hpp"
#include "safedm/common/state.hpp"
#include "safedm/isa/inst.hpp"
#include "safedm/safedm/monitor.hpp"
#include "safedm/soc/soc.hpp"
#include "safedm/workloads/workloads.hpp"

namespace safedm {
namespace {

using assembler::Program;

constexpr u64 kBudget = 2'000'000;

/// SoC + attached SafeDM, the pairing every campaign rig uses. The monitor
/// is an observer (a binding, not SoC state), so it serializes alongside
/// the SoC in one stream.
struct Rig {
  Rig() : soc(soc::SocConfig{}), dm([] {
    monitor::SafeDmConfig config;
    config.start_enabled = true;
    return config;
  }()) {
    soc.add_observer(&dm);
  }

  void load(const Program& program) {
    soc.load_redundant(program);
    dm.set_prelude_ignore(0, 0);
    dm.set_prelude_ignore(1, 0);
  }

  std::vector<u8> save() const {
    StateWriter w;
    soc.save_state(w);
    dm.save_state(w);
    return w.take();
  }

  void restore(std::span<const u8> bytes) {
    StateReader r(bytes);
    soc.restore_state(r);
    dm.restore_state(r);
  }

  u64 result(unsigned core_index) {
    const u64 base = core_index == 0 ? soc.config().data_base0 : soc.config().data_base1;
    return soc.memory().load(base + workloads::kResultOffset, 8);
  }

  soc::MpSoc soc;
  monitor::SafeDm dm;
};

void expect_counters_equal(const monitor::SafeDmCounters& a, const monitor::SafeDmCounters& b) {
  EXPECT_EQ(a.monitored_cycles, b.monitored_cycles);
  EXPECT_EQ(a.nodiv_cycles, b.nodiv_cycles);
  EXPECT_EQ(a.ds_match_cycles, b.ds_match_cycles);
  EXPECT_EQ(a.is_match_cycles, b.is_match_cycles);
  EXPECT_EQ(a.zero_stag_cycles, b.zero_stag_cycles);
  EXPECT_EQ(a.interrupts, b.interrupts);
  EXPECT_EQ(a.distance_sum, b.distance_sum);
}

/// The property itself: original runs 0..end; the copy is restored from a
/// snapshot at `split` and both step in lockstep from there. Observable
/// streams are compared cycle by cycle, not just at the end, so a
/// transient divergence that later re-converges still fails.
void check_roundtrip(const Program& program, u64 split) {
  Rig original;
  original.load(program);
  while (!original.soc.all_halted() && original.soc.cycle() < split) original.soc.step();
  const std::vector<u8> bytes = original.save();

  Rig restored;  // fresh instance: nothing loaded, everything from the stream
  restored.restore(bytes);
  ASSERT_EQ(restored.soc.cycle(), original.soc.cycle());

  while (!original.soc.all_halted() && original.soc.cycle() < kBudget) {
    original.soc.step();
    restored.soc.step();
    ASSERT_EQ(original.soc.cycle(), restored.soc.cycle());
    for (unsigned c = 0; c < original.soc.num_cores(); ++c)
      ASSERT_EQ(original.soc.frame(c), restored.soc.frame(c))
          << "core " << c << " tap frame diverged at cycle " << original.soc.cycle();
    ASSERT_EQ(original.dm.lacking_diversity_now(), restored.dm.lacking_diversity_now())
        << "SafeDM verdict diverged at cycle " << original.soc.cycle();
  }

  EXPECT_TRUE(original.soc.all_halted());
  EXPECT_TRUE(restored.soc.all_halted());
  EXPECT_EQ(original.soc.cycle(), restored.soc.cycle());
  for (unsigned c = 0; c < original.soc.num_cores(); ++c) {
    EXPECT_EQ(original.soc.core(c).halt_reason(), restored.soc.core(c).halt_reason());
    EXPECT_EQ(original.soc.core(c).stats().committed, restored.soc.core(c).stats().committed);
    EXPECT_EQ(original.result(c), restored.result(c)) << "core " << c << " result checksum";
  }
  expect_counters_equal(original.dm.counters(), restored.dm.counters());
  EXPECT_EQ(original.dm.instruction_diff(), restored.dm.instruction_diff());
  EXPECT_EQ(original.dm.interrupt_pending(), restored.dm.interrupt_pending());
}

TEST(SnapshotRoundtrip, WorkloadsAreForwardBitIdenticalFromRandomCycles) {
  Xoshiro256 rng(2024);
  for (const char* name : {"bitcount", "quicksort", "md5"}) {
    const Program program = workloads::build(name, 1);
    // One early, one mid-run split per workload.
    check_roundtrip(program, rng.range(1, 400));
    check_roundtrip(program, rng.range(5'000, 40'000));
  }
}

// ---- random-program corner of the property ---------------------------------

namespace e = isa::enc;
using namespace assembler;

/// Straight-line generator following the workload conventions (a0 = data
/// base, checksum published at kResultOffset, clean ecall) — same shape as
/// the faultsim property generator, reused here to hit register/memory
/// mixes the curated workloads don't.
Program random_program(u64 seed) {
  Xoshiro256 rng(seed);
  Assembler a;
  DataBuilder d;
  std::vector<u64> blob(64);
  for (auto& w : blob) w = rng.next();
  d.add_u64_array(blob);

  constexpr Reg kPool[] = {T0, T1, T2, S1, S2, S3, A1, A2};
  constexpr unsigned kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
  const auto pick = [&] { return kPool[rng.below(kPoolSize)]; };
  for (Reg r : kPool) a.li(r, static_cast<i64>(rng.next() & 0xFFFF));

  const unsigned ops = 40 + static_cast<unsigned>(rng.below(60));
  for (unsigned i = 0; i < ops; ++i) {
    const Reg rd = pick(), rs1 = pick(), rs2 = pick();
    switch (rng.below(8)) {
      case 0: a(e::add(rd, rs1, rs2)); break;
      case 1: a(e::sub(rd, rs1, rs2)); break;
      case 2: a(e::xor_(rd, rs1, rs2)); break;
      case 3: a(e::or_(rd, rs1, rs2)); break;
      case 4: a(e::and_(rd, rs1, rs2)); break;
      case 5: a(e::mul(rd, rs1, rs2)); break;
      case 6: a(e::ld(rd, A0, static_cast<i64>(rng.below(64) * 8))); break;
      default: a(e::sltu(rd, rs1, rs2)); break;
    }
  }
  a.mv(T6, ZERO);
  for (Reg r : kPool) a(e::xor_(T6, T6, r));
  a(e::sd(T6, A0, workloads::kResultOffset));
  a(e::ecall());
  return a.assemble("random", std::move(d));
}

TEST(SnapshotRoundtrip, RandomProgramsAreForwardBitIdentical) {
  Xoshiro256 rng(7);
  for (u64 p = 0; p < 5; ++p) {
    const Program program = random_program(4000 + p);
    // Probe the run length so splits land strictly inside it.
    Rig probe;
    probe.load(program);
    while (!probe.soc.all_halted() && probe.soc.cycle() < kBudget) probe.soc.step();
    ASSERT_TRUE(probe.soc.all_halted());
    check_roundtrip(program, rng.range(1, probe.soc.cycle() - 1));
  }
}

// ---- snapshot-level rejection paths -----------------------------------------

TEST(SnapshotRoundtrip, TruncatedStreamIsRejected) {
  Rig rig;
  rig.load(workloads::build("bitcount", 1));
  for (int i = 0; i < 500; ++i) rig.soc.step();
  const std::vector<u8> bytes = rig.save();

  for (const std::size_t keep : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<u8> cut(bytes.begin(), bytes.begin() + static_cast<long>(keep));
    Rig victim;
    EXPECT_THROW(victim.restore(cut), StateError) << "kept " << keep << " bytes";
  }
}

TEST(SnapshotRoundtrip, CorruptedSectionVersionIsRejected) {
  Rig rig;
  rig.load(workloads::build("bitcount", 1));
  for (int i = 0; i < 500; ++i) rig.soc.step();
  std::vector<u8> bytes = rig.save();
  // Byte 12 is the first byte of the outermost section's u32 version
  // (after the 8-byte magic and 4-byte tag).
  bytes[12] ^= 0x55;
  Rig victim;
  EXPECT_THROW(victim.restore(bytes), StateError);
}

TEST(SnapshotRoundtrip, OutOfRangeReportModeIsRejected) {
  Rig rig;
  rig.load(workloads::build("bitcount", 1));
  for (int i = 0; i < 500; ++i) rig.soc.step();
  StateWriter w;
  rig.dm.save_state(w);
  std::vector<u8> bytes = w.take();
  // Monitor-only stream: the 8-byte magic, the SFDM section header (tag,
  // version, length: 16 bytes), the u32 replica count, then the report
  // mode byte.
  constexpr std::size_t kReportByte = 8 + 16 + 4;
  ASSERT_EQ(bytes[kReportByte], static_cast<u8>(rig.dm.config().report));
  for (const u8 hostile : {u8{3}, u8{0x80}, u8{0xFF}}) {
    bytes[kReportByte] = hostile;
    monitor::SafeDm victim(rig.dm.config());
    StateReader r(bytes);
    EXPECT_THROW(victim.restore_state(r), StateError) << "report byte " << int{hostile};
  }
}

TEST(SnapshotRoundtrip, ReservedApbReportModeKeepsTheStreamRestorable) {
  monitor::SafeDm dm(monitor::SafeDmConfig{});
  dm.apb_write(monitor::reg::kCtrl, 1u | (3u << 1));  // encoding 3 is reserved
  EXPECT_EQ(dm.config().report, monitor::ReportMode::kPollOnly);
  StateWriter w;
  dm.save_state(w);
  const std::vector<u8> bytes = w.take();
  monitor::SafeDm restored(monitor::SafeDmConfig{});
  StateReader r(bytes);
  EXPECT_NO_THROW(restored.restore_state(r));
}

TEST(SnapshotRoundtrip, ConfigFingerprintMismatchIsRejected) {
  soc::MpSoc small(soc::SocConfig{});
  small.load_redundant(workloads::build("bitcount", 1));
  for (int i = 0; i < 500; ++i) small.step();
  const Snapshot snap = small.snapshot();

  soc::SocConfig quad;
  quad.groups = {soc::GroupSpec::homogeneous(2), soc::GroupSpec::homogeneous(2)};
  soc::MpSoc other(quad);
  EXPECT_THROW(other.restore(snap), StateError);
}

TEST(SnapshotRoundtrip, SnapshotRestoreRewindsTheSameInstance) {
  const Program program = workloads::build("bitcount", 1);
  Rig rig;
  rig.load(program);
  for (int i = 0; i < 2'000; ++i) rig.soc.step();
  const Snapshot snap = rig.soc.snapshot();
  const std::vector<u8> monitor_bytes = [&] {
    StateWriter w;
    rig.dm.save_state(w);
    return w.take();
  }();

  // Run to completion once, remember the observables...
  while (!rig.soc.all_halted() && rig.soc.cycle() < kBudget) rig.soc.step();
  const u64 end_cycle = rig.soc.cycle();
  const u64 result0 = rig.result(0);
  const u64 nodiv = rig.dm.counters().nodiv_cycles;

  // ...rewind the same instance, run again, and expect the same end state.
  rig.soc.restore(snap);
  {
    StateReader r(monitor_bytes);
    rig.dm.restore_state(r);
  }
  EXPECT_EQ(rig.soc.cycle(), 2'000u);
  while (!rig.soc.all_halted() && rig.soc.cycle() < kBudget) rig.soc.step();
  EXPECT_EQ(rig.soc.cycle(), end_cycle);
  EXPECT_EQ(rig.result(0), result0);
  EXPECT_EQ(rig.dm.counters().nodiv_cycles, nodiv);
}

}  // namespace
}  // namespace safedm
