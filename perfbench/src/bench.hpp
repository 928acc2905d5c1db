// Shared pieces of the end-to-end benchmark: the pass result every
// workload returns, the model-statistics totals read from the simulator's
// public stats accessors, digests, and small numeric helpers.
//
// Load model: closed loop, one simulation thread. A workload's "pass" is a
// fixed, seed-determined unit of work (the Table-I sweep, one campaign,
// one fuzz campaign, one round of group runs); main() repeats passes for
// the measured window and checks every pass against the first one and
// against the pinned expectations.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "safedm/common/bits.hpp"
#include "safedm/common/hash.hpp"
#include "calibrate.hpp"
#include "safedm/scenario/json.hpp"
#include "trace.hpp"

namespace safedm::soc {
class MpSoc;
}
namespace safedm::monitor {
class SafeDm;
}

namespace perfbench {

using safedm::u32;
using safedm::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// FNV-1a digest over a stream of simulated outputs.
class Digest {
 public:
  void add(u64 word) { h_.add(word); }
  void add(std::string_view bytes);
  u64 value() const { return h_.value(); }

 private:
  safedm::Fnv1a64 h_;
};

/// FNV-1a 64 over raw bytes (the report digests pinned in expected/*.json).
u64 fnv1a_bytes(std::string_view bytes);
std::string hex64(u64 value);

/// Model statistics summed over every SoC run of a pass. These describe
/// the simulated hardware, so a change that only speeds up the simulator
/// must leave every one of them bit-identical.
struct ModelTotals {
  u64 core_cycles = 0, committed = 0, committed_groups = 0, dual_issue = 0, mispredicts = 0;
  u64 stall_l1d = 0, stall_l1i = 0, stall_sb_full = 0, stall_raw = 0, stall_ex_busy = 0,
      stall_external = 0;
  u64 l1i_hits = 0, l1i_misses = 0, l1d_hits = 0, l1d_misses = 0;
  u64 l2_hits = 0, l2_misses = 0, l2_writeback_evictions = 0;
  u64 sb_pushed = 0, sb_coalesced = 0, sb_full_stalls = 0;
  u64 bus_grants = 0, bus_busy = 0, bus_idle = 0, bus_grant_wait = 0;
  u64 monitored = 0, nodiv = 0, zero_stag = 0;

  /// Fold one finished run's statistics in (all cores, the shared L2 and
  /// bus, the group's monitor).
  void add_run(safedm::soc::MpSoc& soc, const safedm::monitor::SafeDm& dm);
  void add_to(Digest& digest) const;
  void to_metrics(std::map<std::string, double>& out) const;
};

/// Comparator fast-path/fallback accounting summed over pairs and runs.
/// Implementation counts: a simulator-only change may move them.
struct ComparatorTotals {
  u64 fast_updates = 0, hold_reuses = 0, realign_scans = 0, is_recomputes = 0;

  void add_run(const safedm::monitor::SafeDm& dm);
  void to_metrics(std::map<std::string, double>& out, u64 monitored_cycles) const;
};

/// What one pass of a workload produced.
struct PassResult {
  std::vector<double> op_ms;  // host ms per operation, in execution order
  u64 failed = 0;             // operations that failed a check
  double seconds = 0;         // host seconds of the whole pass
  double ref_factor = 1;      // reference seconds per host second (set by main)
  u64 sim_cycles = 0;         // simulated SoC cycles (0: not observable)
  u64 sim_instr = 0;          // committed instructions, summed over cores
  u64 digest = 0;             // FNV-1a over the pass's simulated output
  /// Pass-level outputs pinned for the default seed (report digests, hex).
  std::map<std::string, std::string> pinned;
  std::map<std::string, double> model;  // model statistics (must not move)
  std::map<std::string, double> layer;  // host time and implementation counts
  std::vector<std::string> errors;      // check failures, one line each

  u64 ops() const { return op_ms.size(); }
  /// Record one operation's host time and let the calibrator sample the
  /// host speed alongside.
  void add_op(double ms, Calibrator& calibrator) {
    op_ms.push_back(ms);
    calibrator.after_op(ms / 1e3);
  }
  /// A pass-level check failed: every operation of the pass is counted.
  void fail_pass(std::string message);
  void fail_op(std::string message);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs (programs, corpus, topology) from the seed. Timed
  /// and repeated by main(); the last set-up's inputs are used. Returns
  /// the host seconds spent building workload programs.
  virtual double setup() = 0;
  /// One pass over the inputs, checked against the pinned outputs.
  /// `tracer` records spans when enabled; every operation is recorded
  /// through PassResult::add_op with `calibrator`.
  virtual PassResult pass(Tracer& tracer, Calibrator& calibrator) = 0;
  /// False when the inputs do not depend on the seed, so the pass-level
  /// pins hold for every seed.
  virtual bool seeded() const { return true; }
  /// Workload-specific members of expected/<workload>.json, as JSON
  /// member text pinning the last pass's per-operation outputs (for
  /// --pin, when a model change legitimately moves them).
  virtual std::string pin_members() const { return {}; }
};

/// Read and parse a JSON file; prints a diagnostic and exits 2 on failure.
safedm::scenario::JsonValue read_json_file(const std::string& path);
/// A pinned u64: a JSON integer or a hex string.
u64 json_u64(const safedm::scenario::JsonValue& value);
/// Member `key` of `object`; prints a diagnostic and exits 2 when absent.
const safedm::scenario::JsonValue& json_member(const safedm::scenario::JsonValue& object,
                                               std::string_view key);

struct WorkloadArgs {
  u64 seed = 1;      // fixes the generated inputs
  std::string root;  // repository checkout (scenarios/ is read from it)
  /// Parsed expected/<workload>.json; null under --pin, where nothing is
  /// compared against pins.
  const safedm::scenario::JsonValue* pins = nullptr;
};

/// Workload factory; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadArgs& args);

std::unique_ptr<Workload> make_table1(const WorkloadArgs& args);
std::unique_ptr<Workload> make_campaign(const WorkloadArgs& args);
std::unique_ptr<Workload> make_fuzz(const WorkloadArgs& args);
std::unique_ptr<Workload> make_group(const WorkloadArgs& args);

}  // namespace perfbench
