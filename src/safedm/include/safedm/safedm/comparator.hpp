// Incremental diversity comparator (the per-cycle hot path of the
// monitor). Real SafeDM hardware compares the full signatures in one
// cycle because only one sample per port FIFO changes per clock; this
// software model exploits the same incrementality.
//
// DS bookkeeping: one mismatch bitmask per port (one 64-bit word per 64
// window positions — depths beyond 64 widen to multiple words instead of
// losing the fast path), bit i set when the two cores' logical FIFO
// position i (0 = oldest) holds differing samples. When both pipelines
// shift, each mask shifts down by one (the oldest pair ages out) and the
// newest pair's comparison enters at the top — O(ports) work per cycle.
// When the cores' hold signals diverge the windows de-align and the
// comparator falls back to one full realignment scan, bit-sliced over the
// generators' SoA value/enable planes via the runtime-dispatched
// simd::mismatch_bits kernel; the common both-shift / both-hold cases
// stay on the fast path. The masks index logical window positions (each
// generator tracks its own ring offset via its shift count), so alignment
// recovers automatically once both windows again hold identical
// histories.
//
// IS bookkeeping: the verdict is recomputed only when either core's
// pipeline-stage snapshot version changed; held pipelines reuse it.
//
// CompareMode::kCrc32 routes through the generators' dirty-bit-cached
// CRCs instead, preserving the compressed compare's collision semantics
// (the A2 ablation's false-negative risk).
#pragma once

#include <vector>

#include "safedm/safedm/signature.hpp"
#include "safedm/safedm/simd.hpp"

namespace safedm::monitor {

class DiversityComparator {
 public:
  DiversityComparator(const SignatureGenerator& a, const SignatureGenerator& b);

  /// Re-derive all bookkeeping from the generators' current state (after a
  /// generator reset, or to attach mid-stream).
  void resync();

  /// Advance one cycle; call after both generators captured their frames.
  /// Inline: this runs once per simulated cycle and the common both-shift /
  /// both-hold cases must stay a handful of instructions.
  void update() {
    const u64 sa = a_->shift_count();
    const u64 sb = b_->shift_count();
    const u64 da = sa - seen_shift_a_;
    const u64 db = sb - seen_shift_b_;
    seen_shift_a_ = sa;
    seen_shift_b_ = sb;

    if (da == 1 && db == 1) {
      if (mask_words_ == 1) {
        // Both shifted: every logical position ages down by one; the
        // evicted (oldest) pair falls off the bottom of each mask and the
        // newly inserted pair is compared at the top. O(ports) total, on
        // the SoA planes with the ring offset computed once.
        const unsigned top = depth_ - 1;
        const unsigned oa = (static_cast<unsigned>(sa) - 1) & ring_mask_;
        const unsigned ob = (static_cast<unsigned>(sb) - 1) & ring_mask_;
        u64* masks = port_mismatch_.data();
        u64 agg = 0;
        for (unsigned p = 0; p < ports_; ++p) {
          const unsigned ia = p * stride_ + oa;
          const unsigned ib = p * stride_ + ob;
          u64 mask = masks[p] >> 1;
          mask |= static_cast<u64>((a_values_[ia] != b_values_[ib]) |
                                   (a_enables_[ia] != b_enables_[ib]))
                  << top;
          masks[p] = mask;
          agg |= mask;
        }
        mismatch_agg_ = agg;
      } else {
        // depth > 64: same aging, across multiple mask words per port.
        shift_insert_multiword(sa, sb);
      }
      if (!crc_mode_) ds_match_ = mismatch_agg_ == 0;
      else refresh_data_verdict();
      ++stats_.fast_updates;
    } else if (da == 0 && db == 0) {
      // Both held: window contents unchanged, verdict carries over.
      ++stats_.hold_reuses;
    } else {
      // Hold signals diverged (or a multi-shift gap): the windows
      // de-aligned relative to each other, so realign with one full scan.
      rescan_data();
      refresh_data_verdict();
      ++stats_.realign_scans;
    }

    // IS verdict. Raw per-stage mode: one flat word compare of the packed
    // snapshots, every cycle — cheaper than tracking whether they changed.
    // Other modes gate the (CRC / flat-list) recompute on the generators'
    // stage versions so held pipelines reuse the verdict.
    if (raw_perstage_) {
      // Branchless xor-reduce beats a library memcmp at this size.
      const SignatureGenerator::PackedStages& pa = a_->packed_stages();
      const SignatureGenerator::PackedStages& pb = b_->packed_stages();
      u64 diff = 0;
      for (unsigned k = 0; k < SignatureGenerator::kStageSlots; ++k) diff |= pa[k] ^ pb[k];
      is_match_ = diff == 0;
      ++stats_.is_recomputes;
    } else {
      const u64 va = a_->stage_version();
      const u64 vb = b_->stage_version();
      if (va != seen_stage_a_ || vb != seen_stage_b_) {
        seen_stage_a_ = va;
        seen_stage_b_ = vb;
        ++stats_.is_recomputes;
        recompute_instruction_verdict();
      }
    }
  }

  bool ds_match() const { return ds_match_; }
  bool is_match() const { return is_match_; }

  // ---- plane-kernel hooks (SafeDm's monitor kernel) ----------------------
  //
  // The kernel owns the shift cursors locally and calls exactly one of
  // step_shift_fixed / step_realign per shifted cycle (both-held cycles
  // touch nothing; their count is handed to batch_commit). Contract: raw
  // compare mode, single-word masks (depth <= 64); for step_realign the
  // caller has already written the cycle's samples into both generators'
  // ring planes. batch_commit runs once per chunk, after the generators'
  // own batch_commit, to sync cursors and fold in the amortized stats.

  /// Both cores shifted: age the masks and insert the newest pair straight
  /// from the tap frames (no ring read). P bakes in the port count so the
  /// mask update fully unrolls next to the caller's ring-plane writes;
  /// P == 0 reads the runtime count. Returns the DS verdict.
  template <unsigned P>
  bool step_shift_fixed(const core::CoreTapFrame& fa, const core::CoreTapFrame& fb) {
    const unsigned ports = P != 0 ? P : ports_;
    const unsigned top = depth_ - 1;
    u64* masks = port_mismatch_.data();
    u64 agg = 0;
    for (unsigned p = 0; p < ports; ++p) {
      u64 mask = masks[p] >> 1;
      mask |= static_cast<u64>((fa.port[p].value != fb.port[p].value) |
                               (fa.port[p].enable != fb.port[p].enable))
              << top;
      masks[p] = mask;
      agg |= mask;
    }
    mismatch_agg_ = agg;
    ds_match_ = agg == 0;
    ++stats_.fast_updates;
    return ds_match_;
  }

  /// Hold signals diverged mid-chunk: realign with a full bit-sliced scan
  /// at the caller's explicit shift cursors (the generators' own cursors
  /// lag until batch_commit). Returns the DS verdict.
  bool step_realign(u64 sa, u64 sb);

  /// End of chunk: sync cursors to the (already batch-committed)
  /// generators, fold in per-chunk stats, and install the final IS verdict.
  void batch_commit(u64 hold_reuses, u64 is_recomputes, bool is_match) {
    seen_shift_a_ = a_->shift_count();
    seen_shift_b_ = b_->shift_count();
    seen_stage_a_ = a_->stage_version();
    seen_stage_b_ = b_->stage_version();
    stats_.hold_reuses += hold_reuses;
    stats_.is_recomputes += is_recomputes;
    is_match_ = is_match;
  }

  /// Fast-path / fallback accounting (simulation observability only).
  struct Stats {
    u64 fast_updates = 0;    // O(ports) incremental steps
    u64 hold_reuses = 0;     // both held: verdict carried over unchanged
    u64 realign_scans = 0;   // divergent holds: full window rescan
    u64 is_recomputes = 0;   // stage snapshot changed on either core
  };
  const Stats& stats() const { return stats_; }

  /// Only the stats are stored: every mask/verdict/alignment field is a
  /// pure function of the two generators' state, so restore (called after
  /// the generators have been restored) is resync() + stats. This is the
  /// "make hidden state re-bindable" case: the raw sample pointers taken
  /// at construction stay valid because generator restore never
  /// reallocates its rings.
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  void rescan_data();
  void rescan_at(u64 sa, u64 sb);
  void scan_port(unsigned p, u64 sa, u64 sb, u64* out) const;
  void shift_insert_multiword(u64 sa, u64 sb);
  void refresh_data_verdict();
  void recompute_instruction_verdict();

  // Everything except stats_ is derived from the attached generators and
  // their (separately snapshotted) rings; restore_state rebuilds it all via
  // resync(), so each field carries a no-snapshot annotation for safedm-lint.
  const SignatureGenerator* a_;  // lint: no-snapshot(wiring, set by attach())
  const SignatureGenerator* b_;  // lint: no-snapshot(wiring, set by attach())
  // Stable SoA fast-path views into the generators' ring planes.
  const u64* a_values_;   // lint: no-snapshot(stable raw fast-path view into a_)
  const u64* b_values_;   // lint: no-snapshot(stable raw fast-path view into b_)
  const u8* a_enables_;   // lint: no-snapshot(stable raw fast-path view into a_)
  const u8* b_enables_;   // lint: no-snapshot(stable raw fast-path view into b_)
  unsigned stride_;     // lint: no-snapshot(padded per-port ring span, from generator geometry)
  unsigned ring_mask_;  // lint: no-snapshot(stride_ - 1, derived)
  unsigned depth_;      // lint: no-snapshot(generator geometry, derived)
  unsigned ports_;      // lint: no-snapshot(generator geometry, derived)
  bool crc_mode_;       // lint: no-snapshot(generator config, derived)
  bool raw_perstage_;   // lint: no-snapshot(raw compare + per-stage IS verdict inlines, derived)
  unsigned mask_words_; // lint: no-snapshot(ceil(depth/64), derived)

  // bit i of word i/64: logical pos i differs; ports_ x mask_words_,
  // port-major.
  std::vector<u64> port_mismatch_;  // lint: no-snapshot(rebuilt by resync())
  u64 mismatch_agg_ = 0;  // lint: no-snapshot(OR of all port masks, rebuilt by resync())

  u64 seen_shift_a_ = 0;         // lint: no-snapshot(incremental cursor, rebuilt by resync())
  u64 seen_shift_b_ = 0;         // lint: no-snapshot(incremental cursor, rebuilt by resync())
  u64 seen_stage_a_ = ~u64{0};   // lint: no-snapshot(incremental cursor, rebuilt by resync())
  u64 seen_stage_b_ = ~u64{0};   // lint: no-snapshot(incremental cursor, rebuilt by resync())

  bool ds_match_ = true;  // lint: no-snapshot(verdict, recomputed by resync())
  bool is_match_ = true;  // lint: no-snapshot(verdict, recomputed by resync())
  Stats stats_{};
};

}  // namespace safedm::monitor
