// SafeDM configuration (paper Section III-B).
#pragma once

#include <vector>

#include "safedm/common/bits.hpp"
#include "safedm/core/tap.hpp"

namespace safedm::monitor {

/// How lack of diversity is reported (paper Section III-B3).
enum class ReportMode : u8 {
  kInterruptFirst = 0,      // (1) interrupt on the first occurrence
  kInterruptThreshold = 1,  // (2) interrupt after a programmed count
  kPollOnly = 2,            // (3) no interrupt; RTOS polls the counter
};

/// Instruction-signature construction (paper Section III-B2).
enum class IsMode : u8 {
  kPerStage = 0,  // per-pipeline-stage slots (NOEL-V group-advance cores)
  kFlatList = 1,  // fallback: list of fetched-but-not-retired instructions
};

/// Signature comparison (A2 ablation: raw concatenation vs compression).
enum class CompareMode : u8 {
  kRaw = 0,    // bit-exact comparison of the concatenated FIFOs (the paper)
  kCrc32 = 1,  // CRC-compressed signatures: cheaper, small collision risk
};

/// Replicas one monitor can watch (must agree with soc::kMaxGroupReplicas)
/// and the resulting pairwise-matrix size, C(8,2).
inline constexpr unsigned kMaxReplicas = 8;
inline constexpr unsigned kMaxReplicaPairs = kMaxReplicas * (kMaxReplicas - 1) / 2;

/// Group verdict policy (N-replica groups): when does the *group* lack
/// diversity in a cycle, as a threshold over the per-pair nodiv verdicts.
/// kQuorum with quorum_k = 1 is kAnyPair and with quorum_k = C(n,2) is
/// kAllPairs by construction (the policy lowers to one threshold).
enum class VerdictPolicy : u8 {
  kAnyPair = 0,   // >= 1 pair matched: the conservative default — any
                  // correlated sub-pair already threatens the group
  kAllPairs = 1,  // every pair matched: the whole group collapsed
  kQuorum = 2,    // >= quorum_k pairs matched
};

struct SafeDmConfig {
  /// Replicas monitored together (a redundancy group); the monitor keeps
  /// one signature generator per replica and one diversity comparator per
  /// unordered replica pair. 2 is the paper's pairwise monitor.
  unsigned num_replicas = 2;
  VerdictPolicy policy = VerdictPolicy::kAnyPair;
  unsigned quorum_k = 1;  // for kQuorum: pairs that must match, 1..C(n,2)

  unsigned data_fifo_depth = 8;  // n: cycles of register-port history
  unsigned num_ports = 4;        // m: monitored register-file ports (<= 6)
  IsMode is_mode = IsMode::kPerStage;
  CompareMode compare = CompareMode::kRaw;
  ReportMode report = ReportMode::kPollOnly;
  u32 interrupt_threshold = 1;   // for kInterruptThreshold
  bool start_enabled = false;

  /// Only count once both cores have committed at least one instruction,
  /// mirroring the paper's methodology where the RTOS enables SafeDM after
  /// launching both redundant processes. Without this, the boot window —
  /// both pipelines empty while cold I-cache misses serialize on the bus —
  /// is counted as (vacuous) lack of diversity.
  bool arm_on_first_commit = true;

  /// History-module bin upper bounds (episode lengths in cycles). Empty
  /// selects the default power-of-two binning.
  std::vector<u64> history_bins{};

  /// Extension: also compute the Hamming *distance* between the cores'
  /// signatures each cycle (a diversity magnitude, not just a verdict).
  /// Costs extra simulation time; off by default.
  bool track_distance = false;

  /// Simulation-side comparison strategy: the incremental
  /// DiversityComparator updates cross-core mismatch bookkeeping in
  /// O(num_ports) per cycle (mirroring the hardware, which only sees one
  /// new sample per FIFO per clock). Disable to force the exhaustive
  /// whole-signature comparison every cycle — the reference oracle and
  /// perf baseline. Verdicts are identical either way.
  bool incremental_compare = true;
};

}  // namespace safedm::monitor
