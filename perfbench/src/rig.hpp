// One redundant run on a fresh MPSoC + SafeDM rig, timed from outside.
//
// The traced counterpart of scenario::run_redundant: it takes the same
// RunSpec, builds the same rig (SoC, monitor, load, prelude programming,
// run, finalize) and fills the same RunOutcome, but keeps the rig alive
// long enough to read every module's public stats, and in traced passes
// wraps each call in a span and routes the observer hooks through a
// TimedObserver. table1 checks that its outcomes equal run_redundant's.
#pragma once

#include <vector>

#include "bench.hpp"
#include "safedm/assembler/assembler.hpp"
#include "safedm/safedm/monitor.hpp"
#include "safedm/scenario/redundant.hpp"

namespace perfbench {

struct RigRun {
  double host_ms = 0;  // rig construction through finalize
  safedm::scenario::RunOutcome outcome;  // as run_redundant reports it
  std::vector<u64> committed;  // per replica
  std::vector<u64> results;    // per replica: the workload's result checksum word
  std::vector<safedm::monitor::PairCounters> pairs;  // diversity matrix cells
};

/// Run `program` redundantly on group 0 (`spec.safede` must be unset).
/// Model statistics land in `model`, comparator counts in `cmp`; traced
/// passes also add the layer times (soc.setup_s, soc.run_s,
/// safedm.observe_s) and hook call counts to `pass.layer`.
RigRun run_rig(const safedm::assembler::Program& program, const safedm::scenario::RunSpec& spec,
               Tracer& tracer, PassResult& pass, ModelTotals& model, ComparatorTotals& cmp);

/// Derived layer metrics shared by the rig workloads: soc.self_s and the
/// observer batching ratio, from the sums run_rig accumulated.
void finish_rig_layers(PassResult& pass, const ModelTotals& model, const ComparatorTotals& cmp);

}  // namespace perfbench
