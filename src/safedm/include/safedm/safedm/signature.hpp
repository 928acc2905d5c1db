// Signature generator (paper Fig. 4, "Signature generator" block): per-core
// capture of the Data Signature (DS) and Instruction Signature (IS).
//
// DS: one FIFO per monitored register-file port holding the last n cycles
// of {enable, value} samples; the DS is the concatenation of all FIFOs
// (paper III-B1). The hold signal freezes the FIFOs while the pipeline is
// stalled (paper IV-B1).
//
// IS: the {valid, encoding} contents of every pipeline-stage slot
// (per-stage mode, paper III-B2), or the flat in-flight instruction list
// for cores without group-advance pipelines.
//
// Storage layout: SoA. The port FIFOs are stored as two contiguous
// planes — a u64 `value` plane and a u8 `enable` plane (strictly 0/1 per
// byte) — each port-major with a per-port span padded to a power of two,
// so ring indexing is a mask instead of a modulo and the comparator can
// bit-slice whole slot runs with one SIMD lane operation (simd.hpp). The
// write cursor counts total shifts; the logical window (oldest..newest)
// is the last `data_fifo_depth` writes. The padding slots beyond the
// logical depth are never read, and the logical signature geometry
// (data_signature_bits) is unchanged by the padding.
#pragma once

#include <cstring>
#include <vector>

#include "safedm/common/hash.hpp"
#include "safedm/core/tap.hpp"
#include "safedm/safedm/config.hpp"

namespace safedm {
class StateReader;
class StateWriter;
}  // namespace safedm

namespace safedm::monitor {

class SignatureGenerator {
 public:
  explicit SignatureGenerator(const SafeDmConfig& config);

  /// Capture one cycle of core observation. Returns true when the data
  /// FIFOs shifted (i.e. the frame was not held). Inline: runs twice per
  /// simulated cycle in the monitor hot path.
  bool capture(const core::CoreTapFrame& frame) {
    // Stage snapshot: pipeline contents are level signals; re-capturing a
    // held pipeline reproduces the same snapshot. The snapshot is packed
    // one slot per 64-bit word so the change check (and every downstream
    // IS comparison) is a flat word walk instead of a struct element walk.
    static_assert(sizeof(frame.stage) == sizeof(PackedStages));
    if (!detect_stage_changes_) {
      // Raw per-stage mode: the comparator's IS verdict is one flat word
      // compare, cheaper than exact change detection would be — just
      // refresh the snapshot.
      std::memcpy(stage_packed_.data(), &frame.stage, sizeof(PackedStages));
      ++stage_version_;
    } else {
      // Change detection gates real work here (CRC rehash / flat-list
      // rebuild), so pay for the exact compare. Only bump the version (and
      // invalidate the IS CRC) when the content actually changed.
      u64 delta = 0;
      for (unsigned k = 0; k < kStageSlots; ++k) {
        u64 word;  // per-word memcpy folds to a plain load
        std::memcpy(&word, reinterpret_cast<const char*>(&frame.stage) + k * sizeof(u64),
                    sizeof(word));
        delta |= word ^ stage_packed_[k];
      }
      if (delta != 0) {
        std::memcpy(stage_packed_.data(), &frame.stage, sizeof(PackedStages));
        ++stage_version_;
        inst_crc_valid_ = false;
      }
    }

    // Data FIFOs shift once per un-held clock (paper IV-B1: "the hold
    // signal is used to not overwrite any values in the FIFOs if the
    // pipeline is stalled").
    if (frame.hold) return false;
    const unsigned slot = static_cast<unsigned>(shifts_) & depth_mask_;
    for (unsigned p = 0; p < config_.num_ports; ++p) {
      const unsigned idx = p * padded_depth_ + slot;
      values_[idx] = frame.port[p].value;
      enables_[idx] = frame.port[p].enable ? u8{1} : u8{0};
    }
    if (crc_cached_) {
      for (unsigned p = 0; p < config_.num_ports; ++p) {
        entry_dirty_[p * padded_depth_ + slot] = 1;
      }
      data_crc_valid_ = false;
    }
    ++shifts_;
    return true;
  }

  /// Clear all captured state (FIFOs empty, pipeline snapshot invalid).
  void reset();

  /// DS0 == DS1 (bit-exact, including enables and sample order). This is
  /// the exhaustive reference comparison; the per-cycle hot path lives in
  /// DiversityComparator.
  static bool data_equal(const SignatureGenerator& a, const SignatureGenerator& b);

  /// IS0 == IS1 under the configured IS mode.
  static bool instruction_equal(const SignatureGenerator& a, const SignatureGenerator& b);

  /// Compressed signatures (CompareMode::kCrc32). Per-entry CRCs are
  /// cached with dirty bits, so in steady state only the newly shifted-in
  /// sample per port is rehashed; the combined value is cached until the
  /// underlying state changes.
  u32 data_crc() const;
  u32 instruction_crc() const;

  /// Uncached variants that rehash the raw signature bytes end to end;
  /// used by the exhaustive (pre-incremental) comparison path so perf
  /// baselines measure what the old code measured.
  u32 data_crc_exhaustive() const;
  u32 instruction_crc_exhaustive() const;

  /// Diversity *magnitude*: Hamming distance between the two cores'
  /// signatures in bits (0 = no diversity). The paper's comparator only
  /// answers equal/unequal; the distance quantifies how far apart the
  /// cores' states are — a richer metric the same hardware taps support.
  static u64 data_distance(const SignatureGenerator& a, const SignatureGenerator& b);
  static u64 instruction_distance(const SignatureGenerator& a, const SignatureGenerator& b);

  /// Total signature storage in bits (used by the hardware cost model and
  /// the APB SIZE register). Reflects the configured logical depth, not
  /// the padded physical storage.
  u64 data_signature_bits() const;
  u64 instruction_signature_bits() const;

  const SafeDmConfig& config() const { return config_; }

  // ---- incremental-comparator observation interface ----------------------

  /// Number of times the data FIFOs have shifted since reset. Two
  /// generators whose shift counts advance in lockstep stay window-aligned.
  u64 shift_count() const { return shifts_; }

  /// Bumped when the pipeline-stage snapshot may have changed (and on
  /// reset); lets observers reuse a cached IS verdict across held cycles.
  /// Exact (content-compared) in CRC and flat-list modes; in raw per-stage
  /// mode it bumps on every capture, since there the downstream verdict is
  /// cheaper than exact change detection.
  u64 stage_version() const { return stage_version_; }

  /// Logical-window access: entry(p, 0) is port p's oldest sample,
  /// entry(p, depth-1) the newest. No bounds checks — hot path.
  core::PortTap entry(unsigned port, unsigned i) const {
    const unsigned idx = port * padded_depth_ +
                         (static_cast<unsigned>(shifts_ - config_.data_fifo_depth + i) & depth_mask_);
    return core::PortTap{enables_[idx] != 0, values_[idx]};
  }

  /// Raw plane views for the comparator's bit-sliced fast path: port p's
  /// physical slot s lives at values_data()[p * padded_depth() + s] (and
  /// the matching enables_data() byte, strictly 0/1). The pointers are
  /// stable for the generator's lifetime.
  const u64* values_data() const { return values_.data(); }
  const u8* enables_data() const { return enables_.data(); }
  unsigned padded_depth() const { return padded_depth_; }

  // ---- plane-kernel support (SafeDm's monitor kernel) ---------------------
  //
  // The kernel's plane strategy writes ring slots directly through these
  // mutable plane pointers (same layout/contract as the *_data() views,
  // enable bytes strictly 0/1) and then calls batch_commit() once per
  // chunk to sync the shift cursor, the pipeline snapshot, and the stage
  // version. Only legal in raw per-stage mode, where no CRC dirty bits or
  // change detection need maintaining — batch_commit checks.
  u64* values_mut() { return values_.data(); }
  u8* enables_mut() { return enables_.data(); }
  void batch_commit(u64 shifts, const void* stage_src, u64 stage_bumps);

  /// One stage slot per word: the bit image of the (padding-free)
  /// StageSlotTap. The packed form makes the whole-pipeline IS comparison
  /// a flat word compare instead of a struct element walk.
  static constexpr unsigned kStageSlots = core::kPipelineStages * core::kMaxIssueWidth;
  using PackedStages = std::array<u64, kStageSlots>;
  const PackedStages& packed_stages() const { return stage_packed_; }

  /// Test access: the sample most recently shifted into `port`'s FIFO.
  core::PortTap newest_sample(unsigned port) const;

  /// FIFO contents + shift cursor + pipeline snapshot. The CRC memo
  /// caches are deliberately NOT serialized: restore marks every entry
  /// dirty, so the first post-restore query recomputes them from the
  /// restored samples — same values, no hidden state. Restore writes into
  /// the existing ring storage (samples_data() stays stable, so an
  /// attached DiversityComparator keeps valid pointers).
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  u32 entry_crc(unsigned index) const;
  u32 data_crc_combine(bool use_cache) const;

  SafeDmConfig config_;
  unsigned padded_depth_ = 1;  // lint: no-snapshot(power of two >= data_fifo_depth, from config)
  unsigned depth_mask_ = 0;    // lint: no-snapshot(padded_depth_ - 1, derived)
  bool crc_cached_ = false;    // lint: no-snapshot(dirty-bit tracking only pays off in CRC mode)
  // Exact stage-change detection pays for itself only when a change gates
  // expensive work (CRC rehash, flat-list rebuild); in raw per-stage mode
  // the snapshot is refreshed unconditionally and the version always bumps.
  // lint: no-snapshot(mode choice, fixed by config at construction)
  bool detect_stage_changes_ = true;
  u64 shifts_ = 0;             // total FIFO shifts; write slot = shifts_ & mask
  u64 stage_version_ = 0;
  // All ports' rings as SoA planes: values_[p * padded_depth_ + slot] and
  // the matching enables_ byte (0/1). Split so the comparator can lane-
  // compare value runs and XOR enable bytes directly.
  std::vector<u64> values_;
  std::vector<u8> enables_;

  // CRC caches (CompareMode::kCrc32): one CRC per physical slot plus a
  // dirty flag, and a cached combination over the logical window.
  // restore_state marks every slot dirty and drops both combined memos, so
  // the caches rebuild from the restored rings on the next query.
  mutable std::vector<u32> entry_crc_;   // lint: no-snapshot(memo, dirty-marked on restore)
  mutable std::vector<u8> entry_dirty_;  // lint: no-snapshot(all-dirty after restore)
  mutable u32 data_crc_cache_ = 0;       // lint: no-snapshot(memo, invalidated on restore)
  mutable bool data_crc_valid_ = false;  // lint: no-snapshot(cleared on restore)
  mutable u32 inst_crc_cache_ = 0;       // lint: no-snapshot(memo, invalidated on restore)
  mutable bool inst_crc_valid_ = false;  // lint: no-snapshot(cleared on restore)

  // Latest pipeline snapshot, packed (slot-major: stage * issue + lane).
  PackedStages stage_packed_{};
};

}  // namespace safedm::monitor
