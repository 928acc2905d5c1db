// Multicore MPSoC model after the Cobham Gaisler NOEL-V platform of the
// paper (Fig. 3): NOEL-V-style cores with private L1s, a shared AHB bus, a
// shared write-back L2 in front of the memory controller, and an APB bus
// for peripherals (SafeDM attaches there).
//
// The paper integrates SafeDM "in a 4-core multicore by Cobham Gaisler":
// cores are grouped into redundant *groups*, each monitored by its own
// SafeDM instance. The paper's topology is the 2-replica pair (cores 2p
// and 2p+1 form pair p); this model generalizes it to ordered groups of
// 2..8 replicas (DMON/ResiLogic-style N-variant redundancy), each replica
// optionally carrying its own structural core config and DME-style
// decorrelation transforms. A SocConfig without explicit groups is the
// paper's evaluation setup: one homogeneous pair.
//
// Redundant-execution conventions:
//   - All replicas of a group run the same program inside the group's text
//     window. Replicas with identical decorrelation (text offset +
//     register-shuffle seed) share one physical text image (shared code,
//     same PCs); decorrelated replicas get their own image at
//     window base + text_offset, register-renamed by their seed. An
//     optional nop prelude placed *before* the program entry implements
//     the paper's initial staggering: the delayed replica boots at the
//     prelude, the others directly at the program entry.
//   - Each core gets its own data segment copy at a distinct base
//     (different address spaces, plus any per-replica data_offset), passed
//     in a0; stacks are per-core (plus any per-replica stack_offset).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "safedm/assembler/assembler.hpp"
#include "safedm/bus/ahb.hpp"
#include "safedm/bus/apb.hpp"
#include "safedm/bus/l2_frontend.hpp"
#include "safedm/common/check.hpp"
#include "safedm/common/state.hpp"
#include "safedm/core/core.hpp"
#include "safedm/mem/phys_mem.hpp"

namespace safedm::soc {

/// Cores in the default (paper-evaluation) configuration.
inline constexpr unsigned kNumCores = 2;

/// Replicas a redundancy group may hold (and, transitively, cores an SoC
/// may hold). The pairwise diversity matrix is C(n,2) comparators, so 8
/// replicas is already a 28-comparator monitor.
inline constexpr unsigned kMinGroupReplicas = 2;
inline constexpr unsigned kMaxGroupReplicas = 8;

/// Per-replica configuration inside a redundancy group: optional
/// structural heterogeneity plus DME-style decorrelation transforms.
/// Defaults describe the paper's homogeneous, non-decorrelated replica.
struct ReplicaSpec {
  /// When set, this replica's core is built from this config instead of
  /// SocConfig::core (issue width is fixed by the model; cache geometry,
  /// store-buffer depth, predictor tables, and unit latencies are free).
  /// The MMIO window is still forced onto the SoC's APB window.
  std::optional<core::CoreConfig> core{};

  // Decorrelation transforms (DME-style deliberate diversity):
  u64 text_offset = 0;       // image placement inside the group text window
  u64 data_offset = 0;       // added to the replica's data segment base
  u64 stack_offset = 0;      // added to the computed stack top (16-aligned)
  u32 reg_shuffle_seed = 0;  // assembler::shuffle_registers seed; 0 = identity
};

/// One redundancy group: an ordered set of 2..8 replica cores monitored
/// together. Cores are assigned to groups in declaration order (group 0
/// gets cores 0..n0-1, group 1 the next n1, ...).
struct GroupSpec {
  std::vector<ReplicaSpec> replicas;

  static GroupSpec homogeneous(unsigned n) {
    GroupSpec group;
    group.replicas.resize(n);
    return group;
  }
  unsigned size() const { return static_cast<unsigned>(replicas.size()); }
};

struct SocConfig {
  core::CoreConfig core{};
  mem::CacheConfig l2{.size_bytes = 256 * 1024, .ways = 8, .line_bytes = 32};
  bus::L2Timing l2_timing{};

  u64 mem_base = 0;
  u64 mem_size = 64 * 1024 * 1024;
  u64 text_base = 0x0001'0000;
  u64 text_stride = 0x0010'0000;   // per-pair text segment spacing
  u64 data_base0 = 0x0040'0000;    // core 0's data segment
  u64 data_base1 = 0x0080'0000;    // core 1's; later cores continue the stride
  bool shared_data = false;        // ablation A3: a pair shares one data segment

  /// APB peripheral window: core loads/stores here route to the APB bus
  /// (uncached), letting guest programs poll SafeDM directly.
  u64 apb_base = 0x8000'0000;
  u64 apb_size = 0x0010'0000;

  /// Redundancy-group topology. Empty selects the paper's single pair of
  /// homogeneous cores; group replica counts must each be in [2, 8] and
  /// the total core count in [2, 8].
  std::vector<GroupSpec> groups{};

  /// Initial arbiter round-robin position (run-to-run platform variation).
  unsigned arbiter_bias = 0;

  /// Cycles of tap frames buffered before observers are invoked. 1 (the
  /// default) delivers per-cycle via on_cycle; N > 1 accumulates N
  /// completed cycles in per-core rings and hands them to on_cycles in
  /// one call, amortizing virtual dispatch across the batch. Pending
  /// frames auto-flush on snapshot/save, at the end of run(), and before
  /// any core's APB-window access, so guest programs and checkpoints
  /// always observe exact per-cycle semantics. Only enable when every
  /// attached observer is a pure sink (SafeDM, traces); intervening
  /// observers (SafeDE, DCLS) need per-cycle delivery.
  unsigned observer_batch = 1;
};

/// Observers see their group's tap frames each cycle (SafeDM, SafeDE,
/// traces). Two-replica groups are delivered through the pairwise hooks
/// (on_cycle/on_cycles, frame0/frame1 being the group's lower/upper
/// core) — the interface every pre-group observer implements. Larger
/// groups go through the group hooks; only observers that understand
/// N > 2 (SafeDM's pairwise diversity matrix) override those.
class CycleObserver {
 public:
  virtual ~CycleObserver() = default;
  virtual void on_cycle(u64 cycle, const core::CoreTapFrame& frame0,
                        const core::CoreTapFrame& frame1) = 0;

  /// Batched delivery (SocConfig::observer_batch > 1): `n` consecutive
  /// completed cycles, frame0[k]/frame1[k] being the pair's frames for
  /// cycle first_cycle + k. The default unrolls to per-cycle on_cycle
  /// calls; observers with a batched fast path (SafeDM) override.
  virtual void on_cycles(u64 first_cycle, const core::CoreTapFrame* frame0,
                         const core::CoreTapFrame* frame1, unsigned n) {
    for (unsigned k = 0; k < n; ++k) on_cycle(first_cycle + k, frame0[k], frame1[k]);
  }

  /// Group delivery: frames[r] is replica r's frame for this cycle. The
  /// default forwards 2-replica groups to on_cycle and rejects larger
  /// ones, so pair-only observers cannot silently watch a third replica.
  virtual void on_group_cycle(u64 cycle, const core::CoreTapFrame* const* frames,
                              unsigned n_replicas) {
    SAFEDM_CHECK_MSG(n_replicas == 2, "observer only handles 2-replica groups");
    on_cycle(cycle, *frames[0], *frames[1]);
  }

  /// Batched group delivery: frames[r] points at `n_cycles` consecutive
  /// frames of replica r (frames[r][k] is replica r at first_cycle + k).
  /// Default: 2-replica groups ride the pairwise batched hook; larger
  /// groups unroll to per-cycle on_group_cycle calls.
  virtual void on_group_cycles(u64 first_cycle, const core::CoreTapFrame* const* frames,
                               unsigned n_replicas, unsigned n_cycles) {
    if (n_replicas == 2) {
      on_cycles(first_cycle, frames[0], frames[1], n_cycles);
      return;
    }
    const core::CoreTapFrame* cycle_frames[kMaxGroupReplicas];
    for (unsigned k = 0; k < n_cycles; ++k) {
      for (unsigned r = 0; r < n_replicas; ++r) cycle_frames[r] = frames[r] + k;
      on_group_cycle(first_cycle + k, cycle_frames, n_replicas);
    }
  }
};

class MpSoc {
 public:
  explicit MpSoc(const SocConfig& config);

  unsigned num_cores() const { return static_cast<unsigned>(cores_.size()); }

  // ---- group topology ------------------------------------------------------
  unsigned num_groups() const { return static_cast<unsigned>(groups_.size()); }
  unsigned group_size(unsigned group) const {
    SAFEDM_CHECK(group < groups_.size());
    return groups_[group].size();
  }
  /// Global core index of replica `replica` of `group`.
  unsigned group_core(unsigned group, unsigned replica) const {
    SAFEDM_CHECK(group < groups_.size() && replica < groups_[group].size());
    return group_first_[group] + replica;
  }
  const GroupSpec& group_spec(unsigned group) const {
    SAFEDM_CHECK(group < groups_.size());
    return groups_[group];
  }

  /// Load `program` for redundant execution on group 0.
  /// `stagger_nops` nop instructions are executed by replica
  /// `delayed_replica` before it enters the program; all replicas start at
  /// cycle 0. Per-replica decorrelation (text/data/stack offsets, register
  /// shuffle) comes from the group's ReplicaSpecs.
  void load_redundant(const assembler::Program& program, unsigned stagger_nops = 0,
                      unsigned delayed_replica = 1);

  /// Same, for an arbitrary group; `delayed_replica` is a group-local
  /// replica index. Groups can be loaded independently.
  void load_redundant_group(unsigned group, const assembler::Program& program,
                            unsigned stagger_nops = 0, unsigned delayed_replica = 1);

  /// Load two different programs onto pair 0 (diverse software use case).
  void load_distinct(const assembler::Program& program0, const assembler::Program& program1);

  /// Park a core in a halted state (unused cores of a partially loaded SoC).
  void park_core(unsigned core_index);

  /// Advance one clock cycle (cores, then bus, then observers).
  void step();

  /// Run until all cores halt or `max_cycles` elapse; returns cycles run.
  u64 run(u64 max_cycles);

  bool all_halted() const;

  core::Core& core(unsigned i);
  const core::Core& core(unsigned i) const;
  const core::CoreTapFrame& frame(unsigned i) const;
  /// Number of prelude nops core `i` executes before its program.
  u64 prelude_commits(unsigned i) const;
  /// Data segment base assigned to core `i`.
  u64 data_base(unsigned i) const;

  mem::PhysMem& memory() { return *memory_; }
  bus::ApbBus& apb() { return apb_; }
  bus::AhbBus& ahb() { return *ahb_; }
  const bus::L2Frontend& l2() const { return *l2_; }
  u64 cycle() const { return cycle_; }
  const SocConfig& config() const { return config_; }

  /// Attach an observer to `group` (default: group 0).
  void add_observer(CycleObserver* observer, unsigned group = 0);

  /// Deliver any buffered observer cycles now (observer_batch > 1; no-op
  /// otherwise). Safe mid-step — the buffer only ever holds completed
  /// cycles — so an APB read always sees observers caught up through the
  /// previous cycle, exactly as per-cycle delivery would. const because
  /// delivery timing is not architectural SoC state.
  void flush_observers() const;

  /// Capture the complete SoC state (memory, L2, bus, cores, tap frames)
  /// as a self-contained snapshot; `restore` rewinds this instance to it.
  /// The snapshot carries a config fingerprint: restoring into an MpSoc
  /// built from a different SocConfig throws StateError. Observers are
  /// not part of the SoC's state — stateful observers (SafeDM, SafeDE,
  /// DCLS) serialize themselves and must be saved/restored alongside,
  /// staying attached to the same pair.
  Snapshot snapshot() const;
  void restore(const Snapshot& snapshot);

  /// Composable forms for embedding the SoC in a larger stream (e.g. a
  /// fault-campaign checkpoint that bundles the SoC with its monitor).
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  void load_group_images(unsigned group, const assembler::Program& program,
                         unsigned stagger_nops, unsigned delayed_replica);
  /// The replica's core config (its override or SocConfig::core), with the
  /// MMIO window forced onto the SoC's APB window.
  core::CoreConfig effective_core_config(unsigned group, unsigned replica) const;

  /// Routes the APB window to the peripheral bus, everything else to RAM.
  class RoutingMemPort final : public MemoryPort {
   public:
    RoutingMemPort(const MpSoc& owner, mem::PhysMem& ram, bus::ApbBus& apb, u64 apb_base,
                   u64 apb_size)
        : owner_(owner), ram_(ram), apb_(apb), apb_base_(apb_base), apb_size_(apb_size) {}
    u64 load(u64 addr, unsigned size) override;
    void store(u64 addr, u64 value, unsigned size) override;

   private:
    const MpSoc& owner_;  // flush hook: APB accesses must see observers caught up
    mem::PhysMem& ram_;
    bus::ApbBus& apb_;
    u64 apb_base_;
    u64 apb_size_;
  };

  SocConfig config_;
  std::unique_ptr<mem::PhysMem> memory_;
  std::unique_ptr<bus::L2Frontend> l2_;
  std::unique_ptr<bus::AhbBus> ahb_;
  bus::ApbBus apb_;  // lint: no-snapshot(stateless address decode; devices snapshot themselves)
  std::unique_ptr<RoutingMemPort> mem_port_;  // lint: no-snapshot(stateless routing shim over memory_)
  std::vector<std::unique_ptr<core::Core>> cores_;
  std::vector<core::CoreTapFrame> frames_;
  std::vector<u64> prelude_commits_;
  // Normalized group topology (never empty after construction) and the
  // derived per-core layout. All of it restates SocConfig, so the config
  // fingerprint — not the state body — covers it.
  std::vector<GroupSpec> groups_;      // fingerprinted by save/restore_state directly
  std::vector<unsigned> group_first_;  // lint: no-snapshot(derived from groups_)
  std::vector<u64> core_data_base_;    // lint: no-snapshot(derived from groups_ + address map)
  // per group
  std::vector<std::vector<CycleObserver*>> observers_;  // lint: no-snapshot(observer wiring, re-attached by owner)
  // Stable per-group frame pointer tables for group delivery (pointers
  // into frames_ / obs_frames_, which never reallocate after the ctor).
  std::vector<std::vector<const core::CoreTapFrame*>> group_frames_;  // lint: no-snapshot(derived wiring)
  std::vector<std::vector<const core::CoreTapFrame*>> group_rings_;   // lint: no-snapshot(derived wiring)
  u64 cycle_ = 0;

  // Batched observer delivery (config_.observer_batch > 1): completed
  // cycles' frames accumulate per core, then flush in one on_cycles call.
  // Delivery timing is not architectural state — a flush precedes every
  // save/restore — hence mutable and unserialized: snapshot bytes are
  // identical across observer_batch settings.
  mutable std::vector<std::vector<core::CoreTapFrame>> obs_frames_;  // lint: no-snapshot(delivery buffer, flushed before save_state)
  mutable unsigned obs_pending_ = 0;  // lint: no-snapshot(flushed before save_state)
  mutable u64 obs_first_cycle_ = 0;   // lint: no-snapshot(flushed before save_state)
};

}  // namespace safedm::soc
