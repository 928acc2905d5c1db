#include "safedm/safedm/monitor.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "safedm/common/check.hpp"
#include "safedm/common/state.hpp"

namespace safedm::monitor {
namespace {

Histogram make_history(const SafeDmConfig& config) {
  if (!config.history_bins.empty()) return Histogram(config.history_bins);
  return Histogram::exponential(16);
}

}  // namespace

// ---- InstructionDiff -----------------------------------------------------------

void InstructionDiff::configure(unsigned n_replicas) {
  SAFEDM_CHECK(n_replicas >= 2 && n_replicas <= kMaxReplicas);
  n_ = n_replicas;
  reset();
}

void InstructionDiff::set_ignore(unsigned replica, u64 count) {
  SAFEDM_CHECK(replica < n_);
  ignore_[replica] = count;
}

void InstructionDiff::reset() {
  cum_ = {};
  ignore_ = {};
}

// ---- SafeDm -----------------------------------------------------------------------

namespace {

unsigned pairs_for(unsigned n_replicas) { return n_replicas * (n_replicas - 1) / 2; }

/// Lower the verdict policy to a single matched-pair threshold.
unsigned lower_policy(const SafeDmConfig& config) {
  const unsigned n_pairs = pairs_for(config.num_replicas);
  switch (config.policy) {
    case VerdictPolicy::kAnyPair:
      return 1;
    case VerdictPolicy::kAllPairs:
      return n_pairs;
    case VerdictPolicy::kQuorum:
      SAFEDM_CHECK_MSG(config.quorum_k >= 1 && config.quorum_k <= n_pairs,
                       "quorum_k must be in 1..C(num_replicas,2)");
      return config.quorum_k;
  }
  SAFEDM_CHECK_MSG(false, "unknown verdict policy");
  return 1;
}

/// The plane strategy (ring-plane writes plus step_* mask compares) covers
/// raw per-stage compare with single-word masks. CRC compare, flat-list IS,
/// deeper FIFOs, and distance tracking capture through the generators.
bool plane_strategy(const SafeDmConfig& config) {
  return config.compare == CompareMode::kRaw && config.is_mode == IsMode::kPerStage &&
         config.data_fifo_depth <= 64 && !config.track_distance;
}

/// The monitor kernel's working copy of a member: a local when kLocal, else
/// a reference to the member itself.
template <bool kLocal, typename T>
using WorkingCopy = std::conditional_t<kLocal, T, T&>;

/// Count a matching cycle into its run, or close the run into the episode
/// histogram.
void track_run(bool condition, u64& run, u64& counter, Histogram& hist) {
  if (condition) {
    ++counter;
    ++run;
  } else if (run > 0) {
    hist.add(run);
    run = 0;
  }
}

template <typename Counters>
void add_distance(Counters& c, u64 distance) {
  c.distance_sum += distance;
  c.distance_min = std::min(c.distance_min, distance);
  c.distance_max = std::max(c.distance_max, distance);
}

}  // namespace

SafeDm::SafeDm(const SafeDmConfig& config)
    : config_(config),
      enabled_(config.start_enabled),
      hist_nodiv_(make_history(config)),
      hist_ds_(make_history(config)),
      hist_is_(make_history(config)),
      hist_distance_(Histogram::exponential(20)) {
  const unsigned n = config.num_replicas;
  SAFEDM_CHECK_MSG(n >= 2 && n <= kMaxReplicas, "num_replicas must be in 2..8");
  needed_ = lower_policy(config);
  // Reserve exactly, then never resize: the comparators keep raw pointers
  // into the generators (whose rings themselves never reallocate).
  sigs_.reserve(n);
  for (unsigned r = 0; r < n; ++r) sigs_.emplace_back(config);
  const unsigned n_pairs = pairs_for(n);
  pairs_.reserve(n_pairs);
  pair_replicas_.reserve(n_pairs);
  for (unsigned i = 0; i < n; ++i) {
    for (unsigned j = i + 1; j < n; ++j) {
      pairs_.emplace_back(sigs_[i], sigs_[j]);
      pair_replicas_.emplace_back(static_cast<u8>(i), static_cast<u8>(j));
    }
  }
  if (n > 2) pair_counters_.resize(n_pairs);
  inst_diff_.configure(n);
}

void SafeDm::enable(bool on) { enabled_ = on; }

void SafeDm::set_prelude_ignore(unsigned replica, u64 commits) {
  inst_diff_.set_ignore(replica, commits);
}

void SafeDm::clear_interrupt() { irq_pending_ = false; }

void SafeDm::set_interrupt_handler(std::function<void(u64)> handler) {
  irq_handler_ = std::move(handler);
}

void SafeDm::reset() {
  for (auto& sig : sigs_) sig.reset();
  for (auto& pair : pairs_) pair.resync();
  inst_diff_.reset();
  counters_ = {};
  for (auto& pc : pair_counters_) pc = {};
  seen_commit_ = {};
  lacking_now_ = false;
  irq_pending_ = false;
  nodiv_run_ = ds_run_ = is_run_ = 0;
  hist_nodiv_.clear();
  hist_ds_.clear();
  hist_is_.clear();
  hist_distance_.clear();
}

const SignatureGenerator& SafeDm::signatures(unsigned replica) const {
  SAFEDM_CHECK(replica < sigs_.size());
  return sigs_[replica];
}

std::pair<unsigned, unsigned> SafeDm::pair_replicas(unsigned pair) const {
  SAFEDM_CHECK(pair < pair_replicas_.size());
  return {pair_replicas_[pair].first, pair_replicas_[pair].second};
}

PairCounters SafeDm::pair_counters(unsigned pair) const {
  SAFEDM_CHECK(pair < pairs_.size());
  if (config_.num_replicas == 2) {
    // The single pair is the group: synthesize the cell from the group
    // counters rather than paying a second set of hot-path increments.
    PairCounters pc;
    pc.nodiv_cycles = counters_.nodiv_cycles;
    pc.ds_match_cycles = counters_.ds_match_cycles;
    pc.is_match_cycles = counters_.is_match_cycles;
    pc.zero_stag_cycles = counters_.zero_stag_cycles;
    pc.distance_sum = counters_.distance_sum;
    pc.distance_min = counters_.distance_min;
    pc.distance_max = counters_.distance_max;
    return pc;
  }
  return pair_counters_[pair];
}

const DiversityComparator::Stats& SafeDm::pair_stats(unsigned pair) const {
  SAFEDM_CHECK(pair < pairs_.size());
  return pairs_[pair].stats();
}

u64 SafeDm::storage_bits() const {
  return config_.num_replicas *
         (sigs_[0].data_signature_bits() + sigs_[0].instruction_signature_bits());
}

// ---- observation ---------------------------------------------------------------

void SafeDm::on_cycle(u64 cycle, const core::CoreTapFrame& frame0,
                      const core::CoreTapFrame& frame1) {
  on_cycles(cycle, &frame0, &frame1, 1);
}

void SafeDm::on_cycles(u64 first_cycle, const core::CoreTapFrame* frame0,
                       const core::CoreTapFrame* frame1, unsigned n) {
  const core::CoreTapFrame* const frames[2] = {frame0, frame1};
  deliver(first_cycle, frames, 2, n);
}

void SafeDm::on_group_cycle(u64 cycle, const core::CoreTapFrame* const* frames,
                            unsigned n_replicas) {
  deliver(cycle, frames, n_replicas, 1);
}

void SafeDm::on_group_cycles(u64 first_cycle, const core::CoreTapFrame* const* frames,
                             unsigned n_replicas, unsigned n_cycles) {
  deliver(first_cycle, frames, n_replicas, n_cycles);
}

void SafeDm::deliver(u64 first_cycle, const core::CoreTapFrame* const* frames,
                     unsigned n_replicas, unsigned n_cycles) {
  SAFEDM_CHECK(n_replicas == config_.num_replicas);  // delivery width
  const bool pair = n_replicas == 2;
  if (!config_.incremental_compare) {
    pair ? reference_step<true>(first_cycle, frames, n_cycles)
         : reference_step<false>(first_cycle, frames, n_cycles);
    return;
  }
  if (n_cycles == 1) {  // per-cycle delivery: a chunk of one captures
    pair ? observe<true, 0>(first_cycle, frames, 1) : observe<false, 0>(first_cycle, frames, 1);
    return;
  }
  // Only the plane strategy touches ports itself, so only it gets a baked-in
  // port count; num_ports is validated to 1..kMaxPorts at construction.
  using Kernel = unsigned (SafeDm::*)(u64, const core::CoreTapFrame* const*, unsigned);
  static constexpr Kernel kKernels[2][core::kMaxPorts + 1] = {
      {&SafeDm::observe<false, 0>, &SafeDm::observe<false, 1>, &SafeDm::observe<false, 2>,
       &SafeDm::observe<false, 3>, &SafeDm::observe<false, 4>, &SafeDm::observe<false, 5>,
       &SafeDm::observe<false, 6>},
      {&SafeDm::observe<true, 0>, &SafeDm::observe<true, 1>, &SafeDm::observe<true, 2>,
       &SafeDm::observe<true, 3>, &SafeDm::observe<true, 4>, &SafeDm::observe<true, 5>,
       &SafeDm::observe<true, 6>}};
  static_assert(core::kMaxPorts == 6, "extend the kernel table with kMaxPorts");
  const unsigned ports = plane_strategy(config_) ? config_.num_ports : 0;
  // The kernel returns after a cycle that raised the interrupt (its handler
  // may reprogram the monitor) and the chunk resumes. Single cycles capture:
  // only longer chunks amortize the plane cursor sync; both leave equal state.
  const core::CoreTapFrame* rest[kMaxReplicas];
  for (unsigned done = 0; done < n_cycles;) {
    for (unsigned r = 0; r < n_replicas; ++r) rest[r] = frames[r] + done;
    const unsigned left = n_cycles - done;
    done += (this->*kKernels[pair][left > 1 ? ports : 0])(first_cycle + done, rest, left);
  }
}

template <bool kPair, unsigned P>
unsigned SafeDm::observe(u64 first_cycle, const core::CoreTapFrame* const* frames,
                         unsigned n_cycles) {
  // Every event below is keyed to a cycle, never to a chunk boundary, so
  // the committed state (snapshot bytes included) does not depend on how
  // the stream is chunked.
  const unsigned n = kPair ? 2 : config_.num_replicas;
  const unsigned n_pairs = kPair ? 1 : num_pairs();
  const unsigned needed = kPair ? 1 : needed_;
  // Replica loops unroll for pairs, so per-replica locals stay in registers.
  const auto each_replica = [n](auto&& body) {
    if constexpr (kPair) {
      body(0u);
      body(1u);
    } else {
      for (unsigned r = 0; r < n; ++r) body(r);
    }
  };
  // Verdict strategy. Planes (P != 0): write the generators' ring planes
  // here, compare stage words straight off the frames, and sync the
  // generator and comparator cursors once at chunk end. Capture (P == 0):
  // every cycle goes through capture() and DiversityComparator::update().
  constexpr bool kPlanes = P != 0;
  const bool track_distance = !kPlanes && config_.track_distance;
  simd::WordsEqualFixedFn stage_equal = nullptr;
  if constexpr (kPlanes) {
    stage_equal =
        simd::words_equal_fixed_fn<SignatureGenerator::kStageSlots>(simd::active_kernel());
  }
  const unsigned stride = sigs_[0].padded_depth();
  const unsigned ring_mask = stride - 1;
  const core::CoreTapFrame* lane[kMaxReplicas];
  u64* values[kMaxReplicas];
  u8* enables[kMaxReplicas];
  u64 shifts[kMaxReplicas];
  bool all_seen = true;
  each_replica([&](unsigned r) {
    lane[r] = frames[r];
    values[r] = sigs_[r].values_mut();
    enables[r] = sigs_[r].enables_mut();
    shifts[r] = sigs_[r].shift_count();
    all_seen = all_seen && seen_commit_[r];
  });
  constexpr unsigned kPairSlots = kPair ? 1 : kMaxReplicaPairs;
  u64 hold_reuses[kPairSlots] = {};
  bool pair_is[kPairSlots] = {};
  // Counting needs the monitor enabled and armed (every replica committed
  // once, unless arming is off); only arming changes mid-chunk.
  bool gate = enabled_ && (all_seen || !config_.arm_on_first_commit);

  // Planes keep the scalar state the loop updates in locals, since the
  // ring-plane byte stores may alias any member and would force a reload
  // after each one; they are written back when the loop ends. Capture,
  // which per-cycle delivery uses, updates the members in place.
  WorkingCopy<kPlanes, SafeDmCounters> cnt = counters_;
  WorkingCopy<kPlanes, InstructionDiff> stag = inst_diff_;
  WorkingCopy<kPlanes, u64> nodiv_run = nodiv_run_, ds_run = ds_run_, is_run = is_run_;
  WorkingCopy<kPlanes, bool> lack_now = lacking_now_, ds_now = ds_match_now_,
                             is_now = is_match_now_;
  bool stag_armed = inst_diff_.armed();
  const u64 fire_at = irq_fire_at();
  bool fired = false;
  std::vector<bool>* const trail = trail_;

  unsigned c = 0;
  for (; c < n_cycles; ++c) {
    // Staggering and arming first: they read nothing but the frames.
    bool all_running = true;
    bool prelude = false;
    each_replica([&](unsigned r) {
      const core::CoreTapFrame& f = lane[r][c];
      prelude |= stag.commit(r, f.commits);
      all_running &= !f.halted;
    });
    stag_armed = stag_armed || !prelude;
    if (!all_seen) {
      all_seen = true;
      each_replica([&](unsigned r) {
        seen_commit_[r] = seen_commit_[r] || lane[r][c].commits > 0;
        all_seen = all_seen && seen_commit_[r];
      });
      gate = enabled_ && (all_seen || !config_.arm_on_first_commit);
    }
    const bool counted = gate && all_running;

    // Clock every signature and comparator whatever the cores' state: the
    // FIFOs never stop, only counting is gated.
    each_replica([&](unsigned r) {
      const core::CoreTapFrame& f = lane[r][c];
      if constexpr (!kPlanes) {
        sigs_[r].capture(f);
      } else if (!f.hold) {
        const unsigned slot = static_cast<unsigned>(shifts[r]) & ring_mask;
        for (unsigned p = 0; p < P; ++p) {
          values[r][p * stride + slot] = f.port[p].value;
          enables[r][p * stride + slot] = f.port[p].enable ? u8{1} : u8{0};
        }
        ++shifts[r];
      }
    });

    unsigned ds_n = 0, is_n = 0, nodiv_n = 0, zero_n = 0;
    u64 group_distance = ~u64{0};
    for (unsigned p = 0; p < n_pairs; ++p) {
      const unsigned pi = kPair ? 0 : pair_replicas_[p].first;
      const unsigned pj = kPair ? 1 : pair_replicas_[p].second;
      DiversityComparator& cmp = pairs_[p];
      bool ds_match;
      bool is_match;
      if constexpr (kPlanes) {
        const core::CoreTapFrame& fi = lane[pi][c];
        const core::CoreTapFrame& fj = lane[pj][c];
        // The packed generator snapshots would be byte-identical to the
        // frames' stages, so compare those directly.
        is_match = pair_is[p] = stage_equal(&fi.stage, &fj.stage);
        if (!fi.hold && !fj.hold) {
          ds_match = cmp.step_shift_fixed<P>(fi, fj);
        } else if (fi.hold && fj.hold) {
          ++hold_reuses[p];
          ds_match = cmp.ds_match();
        } else {
          ds_match = cmp.step_realign(shifts[pi], shifts[pj]);
        }
      } else {
        cmp.update();
        ds_match = cmp.ds_match();
        is_match = cmp.is_match();
      }
      // Tallied unconditionally; uncounted cycles drop the tallies below.
      const bool nodiv = ds_match && is_match;
      const bool zero = stag_armed && stag.pair_diff(pi, pj) == 0;
      ds_n += ds_match;
      is_n += is_match;
      nodiv_n += nodiv;
      zero_n += zero;
      if (!counted) continue;
      u64 distance = 0;
      if (track_distance) {
        distance = SignatureGenerator::data_distance(sigs_[pi], sigs_[pj]) +
                   SignatureGenerator::instruction_distance(sigs_[pi], sigs_[pj]);
        group_distance = std::min(group_distance, distance);
      }
      if constexpr (!kPair) {
        PairCounters& pc = pair_counters_[p];
        pc.ds_match_cycles += ds_match;
        pc.is_match_cycles += is_match;
        pc.nodiv_cycles += nodiv;
        pc.zero_stag_cycles += zero;
        if (track_distance) add_distance(pc, distance);
      }
    }

    if (!counted) [[unlikely]] {
      lack_now = ds_now = is_now = false;
      if (trail) trail->push_back(false);
      continue;
    }
    ++cnt.monitored_cycles;
    // Group verdicts: the lowered policy threshold over the pair verdicts.
    ds_now = ds_n >= needed;
    is_now = is_n >= needed;
    lack_now = nodiv_n >= needed;
    track_run(ds_now, ds_run, cnt.ds_match_cycles, hist_ds_);
    track_run(is_now, is_run, cnt.is_match_cycles, hist_is_);
    track_run(lack_now, nodiv_run, cnt.nodiv_cycles, hist_nodiv_);
    if (zero_n >= needed) ++cnt.zero_stag_cycles;
    if (track_distance) {
      // The group's diversity magnitude is its weakest link.
      add_distance(cnt, group_distance);
      hist_distance_.add(group_distance);
    }
    if (trail) trail->push_back(lack_now);

    if (cnt.nodiv_cycles >= fire_at) {
      irq_pending_ = true;
      ++cnt.interrupts;
      fired = true;
      break;
    }
  }

  // Commit the cycles done before the handler sees the monitor.
  const unsigned done = fired ? c + 1 : n_cycles;
  if constexpr (kPlanes) {
    counters_ = cnt;
    inst_diff_ = stag;
    nodiv_run_ = nodiv_run;
    ds_run_ = ds_run;
    is_run_ = is_run;
    lacking_now_ = lack_now;
    ds_match_now_ = ds_now;
    is_match_now_ = is_now;
    each_replica(
        [&](unsigned r) { sigs_[r].batch_commit(shifts[r], &lane[r][done - 1].stage, done); });
    for (unsigned p = 0; p < n_pairs; ++p) pairs_[p].batch_commit(hold_reuses[p], done, pair_is[p]);
  }
  if (fired && irq_handler_) irq_handler_(first_cycle + c);
  return done;
}

template <bool kPair>
void SafeDm::reference_step(u64 first_cycle, const core::CoreTapFrame* const* frames,
                            unsigned n_cycles) {
  const unsigned n = kPair ? 2 : config_.num_replicas;
  const unsigned n_pairs = kPair ? 1 : num_pairs();
  for (unsigned k = 0; k < n_cycles; ++k) {
    bool all_seen = true;
    bool all_running = true;
    for (unsigned r = 0; r < n; ++r) {
      const core::CoreTapFrame& f = frames[r][k];
      sigs_[r].capture(f);
      inst_diff_.commit(r, f.commits);
      seen_commit_[r] = seen_commit_[r] || f.commits > 0;
      all_seen = all_seen && seen_commit_[r];
      all_running = all_running && !f.halted;
    }
    const bool armed = !config_.arm_on_first_commit || all_seen;
    if (!enabled_ || !all_running || !armed) {
      lacking_now_ = ds_match_now_ = is_match_now_ = false;
      if (trail_) trail_->push_back(false);
      continue;
    }

    ++counters_.monitored_cycles;

    const bool stag_armed = inst_diff_.armed();
    unsigned ds_n = 0, is_n = 0, nodiv_n = 0, zero_n = 0;
    u64 group_distance = ~u64{0};
    for (unsigned p = 0; p < n_pairs; ++p) {
      const unsigned pi = kPair ? 0 : pair_replicas_[p].first;
      const unsigned pj = kPair ? 1 : pair_replicas_[p].second;
      const SignatureGenerator& a = sigs_[pi];
      const SignatureGenerator& b = sigs_[pj];
      bool ds_match;
      bool is_match;
      if (config_.compare == CompareMode::kRaw) {
        ds_match = SignatureGenerator::data_equal(a, b);
        is_match = SignatureGenerator::instruction_equal(a, b);
      } else {
        ds_match = a.data_crc_exhaustive() == b.data_crc_exhaustive();
        is_match = a.instruction_crc_exhaustive() == b.instruction_crc_exhaustive();
      }
      const bool nodiv = ds_match && is_match;
      const bool zero = stag_armed && inst_diff_.pair_diff(pi, pj) == 0;
      if (ds_match) ++ds_n;
      if (is_match) ++is_n;
      if (nodiv) ++nodiv_n;
      if (zero) ++zero_n;
      u64 distance = 0;
      if (config_.track_distance) {
        distance = SignatureGenerator::data_distance(a, b) +
                   SignatureGenerator::instruction_distance(a, b);
        group_distance = std::min(group_distance, distance);
      }
      // Matrix cells exist for N > 2 only; for pairs the group is the cell.
      if constexpr (!kPair) {
        PairCounters& pc = pair_counters_[p];
        if (ds_match) ++pc.ds_match_cycles;
        if (is_match) ++pc.is_match_cycles;
        if (nodiv) ++pc.nodiv_cycles;
        if (zero) ++pc.zero_stag_cycles;
        if (config_.track_distance) add_distance(pc, distance);
      }
    }

    const bool ds_match = ds_n >= needed_;
    const bool is_match = is_n >= needed_;
    const bool nodiv = nodiv_n >= needed_;
    lacking_now_ = nodiv;
    ds_match_now_ = ds_match;
    is_match_now_ = is_match;
    track_run(ds_match, ds_run_, counters_.ds_match_cycles, hist_ds_);
    track_run(is_match, is_run_, counters_.is_match_cycles, hist_is_);
    track_run(nodiv, nodiv_run_, counters_.nodiv_cycles, hist_nodiv_);
    if (zero_n >= needed_) ++counters_.zero_stag_cycles;
    if (config_.track_distance) {
      add_distance(counters_, group_distance);
      hist_distance_.add(group_distance);
    }

    if (trail_) trail_->push_back(lacking_now_);
    update_interrupt(first_cycle + k);
  }
}

void SafeDm::finalize() {
  if (ds_run_ > 0) hist_ds_.add(ds_run_);
  if (is_run_ > 0) hist_is_.add(is_run_);
  if (nodiv_run_ > 0) hist_nodiv_.add(nodiv_run_);
  ds_run_ = is_run_ = nodiv_run_ = 0;
}

u64 SafeDm::irq_fire_at() const {
  if (irq_pending_) return ~u64{0};
  switch (config_.report) {
    case ReportMode::kInterruptFirst:
      return 1;
    case ReportMode::kInterruptThreshold:
      return config_.interrupt_threshold;
    case ReportMode::kPollOnly:
      break;
  }
  return ~u64{0};
}

void SafeDm::update_interrupt(u64 cycle) {
  bool fire = false;
  switch (config_.report) {
    case ReportMode::kInterruptFirst:
      fire = counters_.nodiv_cycles >= 1;
      break;
    case ReportMode::kInterruptThreshold:
      fire = counters_.nodiv_cycles >= config_.interrupt_threshold;
      break;
    case ReportMode::kPollOnly:
      fire = false;
      break;
  }
  if (fire && !irq_pending_) {
    irq_pending_ = true;
    ++counters_.interrupts;
    if (irq_handler_) irq_handler_(cycle);
  }
}

// ---- APB register file ---------------------------------------------------------------

u32 SafeDm::apb_read(u32 offset) {
  switch (offset) {
    case reg::kCtrl:
      return (enabled_ ? 1u : 0u) | (static_cast<u32>(config_.report) << 1);
    case reg::kStatus:
      return (lacking_now_ ? 1u : 0u) | (irq_pending_ ? 2u : 0u);
    case reg::kNodivLo:
      return static_cast<u32>(counters_.nodiv_cycles);
    case reg::kNodivHi:
      return static_cast<u32>(counters_.nodiv_cycles >> 32);
    case reg::kThreshold:
      return config_.interrupt_threshold;
    case reg::kMonitoredLo:
      return static_cast<u32>(counters_.monitored_cycles);
    case reg::kMonitoredHi:
      return static_cast<u32>(counters_.monitored_cycles >> 32);
    case reg::kInstDiff:
      return static_cast<u32>(static_cast<i32>(
          std::clamp<i64>(inst_diff_.diff(), std::numeric_limits<i32>::min(),
                          std::numeric_limits<i32>::max())));
    case reg::kZeroStagLo:
      return static_cast<u32>(counters_.zero_stag_cycles);
    case reg::kZeroStagHi:
      return static_cast<u32>(counters_.zero_stag_cycles >> 32);
    case reg::kDsMatchLo:
      return static_cast<u32>(counters_.ds_match_cycles);
    case reg::kDsMatchHi:
      return static_cast<u32>(counters_.ds_match_cycles >> 32);
    case reg::kIsMatchLo:
      return static_cast<u32>(counters_.is_match_cycles);
    case reg::kIsMatchHi:
      return static_cast<u32>(counters_.is_match_cycles >> 32);
    case reg::kHistSelect:
      return hist_select_;
    case reg::kHistData: {
      const unsigned bin = hist_select_ & 0xFF;
      const unsigned which = (hist_select_ >> 8) & 0x3;
      const Histogram& hist = which == 0 ? hist_nodiv_ : which == 1 ? hist_ds_ : hist_is_;
      if (bin >= hist.bin_count()) return 0;
      const u64 value = hist.bin_value(bin);
      return value > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<u32>(value);
    }
    case reg::kGeometry:
      return (config_.data_fifo_depth & 0xFF) | ((config_.num_ports & 0xFF) << 8) |
             ((core::kPipelineStages & 0xFF) << 16) |
             ((core::kMaxIssueWidth & 0xFF) << 24);
    case reg::kGroup:
      return (config_.num_replicas & 0xFF) | ((num_pairs() & 0xFF) << 8) |
             ((static_cast<u32>(config_.policy) & 0x3) << 16) | ((needed_ & 0x3FFF) << 18);
    case reg::kPairSelect:
      return pair_select_;
    case reg::kPairData: {
      const unsigned pair = pair_select_ & 0xFF;
      const unsigned which = (pair_select_ >> 8) & 0x3;
      if (pair >= num_pairs()) return 0;
      const PairCounters pc = pair_counters(pair);
      const u64 value = which == 0   ? pc.nodiv_cycles
                        : which == 1 ? pc.ds_match_cycles
                        : which == 2 ? pc.is_match_cycles
                                     : pc.zero_stag_cycles;
      return value > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<u32>(value);
    }
    default:
      return 0;
  }
}

void SafeDm::apb_write(u32 offset, u32 value) {
  switch (offset) {
    case reg::kCtrl: {
      enabled_ = value & 1u;
      // The reserved report encoding 3 leaves the mode unchanged.
      const u32 report = (value >> 1) & 0x3u;
      if (report <= static_cast<u32>(ReportMode::kPollOnly))
        config_.report = static_cast<ReportMode>(report);
      if (value & (1u << 3)) reset();
      if (value & (1u << 4)) clear_interrupt();
      break;
    }
    case reg::kThreshold:
      config_.interrupt_threshold = value;
      break;
    case reg::kIgnore0:
      inst_diff_.set_ignore(0, value);
      break;
    case reg::kIgnore1:
      inst_diff_.set_ignore(1, value);
      break;
    case reg::kHistSelect:
      hist_select_ = value;
      break;
    case reg::kPairSelect:
      pair_select_ = value;
      break;
    default:
      break;  // writes to read-only registers are ignored, like hardware
  }
}

// ---- snapshot/restore ----------------------------------------------------------

void InstructionDiff::save_state(StateWriter& w) const {
  w.begin_section("IDIF", 2);
  w.put_u32(n_);
  for (unsigned r = 0; r < n_; ++r) {
    w.put_u64(cum_[r]);
    w.put_u64(ignore_[r]);
  }
  w.end_section();
}

void InstructionDiff::restore_state(StateReader& r) {
  r.begin_section("IDIF", 2);
  const u32 n = r.get_u32();
  if (n != n_) throw StateError("InstructionDiff replica count mismatch");
  for (unsigned i = 0; i < n_; ++i) {
    cum_[i] = r.get_u64();
    ignore_[i] = r.get_u64();
  }
  r.end_section();
}

void SafeDm::save_state(StateWriter& w) const {
  w.begin_section("SFDM", 2);
  // Group shape first: a snapshot only restores into a same-shape monitor.
  w.put_u32(config_.num_replicas);
  // Runtime-writable config bits (kCtrl report mode, kThreshold).
  w.put_u8(static_cast<u8>(config_.report));
  w.put_u32(config_.interrupt_threshold);
  w.put_bool(enabled_);
  for (unsigned r = 0; r < config_.num_replicas; ++r) w.put_bool(seen_commit_[r]);
  w.put_bool(lacking_now_);
  w.put_bool(ds_match_now_);
  w.put_bool(is_match_now_);
  w.put_bool(irq_pending_);
  w.put_u64(counters_.monitored_cycles);
  w.put_u64(counters_.nodiv_cycles);
  w.put_u64(counters_.ds_match_cycles);
  w.put_u64(counters_.is_match_cycles);
  w.put_u64(counters_.zero_stag_cycles);
  w.put_u64(counters_.interrupts);
  w.put_u64(counters_.distance_sum);
  w.put_u64(counters_.distance_min);
  w.put_u64(counters_.distance_max);
  w.put_u64(nodiv_run_);
  w.put_u64(ds_run_);
  w.put_u64(is_run_);
  w.put_u32(hist_select_);
  w.put_u32(pair_select_);
  // Matrix cells (N > 2 only; for pairs the group counters are the cell).
  for (const PairCounters& pc : pair_counters_) {
    w.put_u64(pc.nodiv_cycles);
    w.put_u64(pc.ds_match_cycles);
    w.put_u64(pc.is_match_cycles);
    w.put_u64(pc.zero_stag_cycles);
    w.put_u64(pc.distance_sum);
    w.put_u64(pc.distance_min);
    w.put_u64(pc.distance_max);
  }
  inst_diff_.save_state(w);
  for (const SignatureGenerator& sig : sigs_) sig.save_state(w);
  for (const DiversityComparator& pair : pairs_) pair.save_state(w);
  hist_nodiv_.save_state(w);
  hist_ds_.save_state(w);
  hist_is_.save_state(w);
  hist_distance_.save_state(w);
  w.end_section();
}

void SafeDm::restore_state(StateReader& r) {
  r.begin_section("SFDM", 2);
  if (r.get_u32() != config_.num_replicas)
    throw StateError("SafeDm group shape mismatch (num_replicas)");
  const u8 report = r.get_u8();
  if (report > static_cast<u8>(ReportMode::kPollOnly))
    throw StateError("corrupt state stream: SafeDm report mode out of range");
  config_.report = static_cast<ReportMode>(report);
  config_.interrupt_threshold = r.get_u32();
  enabled_ = r.get_bool();
  for (unsigned i = 0; i < config_.num_replicas; ++i) seen_commit_[i] = r.get_bool();
  lacking_now_ = r.get_bool();
  ds_match_now_ = r.get_bool();
  is_match_now_ = r.get_bool();
  irq_pending_ = r.get_bool();
  counters_.monitored_cycles = r.get_u64();
  counters_.nodiv_cycles = r.get_u64();
  counters_.ds_match_cycles = r.get_u64();
  counters_.is_match_cycles = r.get_u64();
  counters_.zero_stag_cycles = r.get_u64();
  counters_.interrupts = r.get_u64();
  counters_.distance_sum = r.get_u64();
  counters_.distance_min = r.get_u64();
  counters_.distance_max = r.get_u64();
  nodiv_run_ = r.get_u64();
  ds_run_ = r.get_u64();
  is_run_ = r.get_u64();
  hist_select_ = r.get_u32();
  pair_select_ = r.get_u32();
  for (PairCounters& pc : pair_counters_) {
    pc.nodiv_cycles = r.get_u64();
    pc.ds_match_cycles = r.get_u64();
    pc.is_match_cycles = r.get_u64();
    pc.zero_stag_cycles = r.get_u64();
    pc.distance_sum = r.get_u64();
    pc.distance_min = r.get_u64();
    pc.distance_max = r.get_u64();
  }
  inst_diff_.restore_state(r);
  for (SignatureGenerator& sig : sigs_) sig.restore_state(r);
  // The comparators resync against the freshly restored generators.
  for (DiversityComparator& pair : pairs_) pair.restore_state(r);
  hist_nodiv_.restore_state(r);
  hist_ds_.restore_state(r);
  hist_is_.restore_state(r);
  hist_distance_.restore_state(r);
  r.end_section();
}

}  // namespace safedm::monitor
