#include "rig.hpp"

#include "safedm/workloads/workloads.hpp"

namespace perfbench {

using safedm::monitor::SafeDm;
using safedm::soc::MpSoc;

RigRun run_rig(const safedm::assembler::Program& program, const safedm::scenario::RunSpec& spec,
               Tracer& tracer, PassResult& pass, ModelTotals& model, ComparatorTotals& cmp) {
  RigRun out;
  const auto start = Clock::now();

  const std::size_t setup_span = tracer.open("soc.setup");
  safedm::soc::SocConfig soc_config = spec.soc;
  soc_config.arbiter_bias = spec.arbiter_bias;
  // As run_redundant: SafeDM is a pure sink, so batched delivery is exact.
  if (soc_config.observer_batch == 1) soc_config.observer_batch = 32;
  MpSoc soc(soc_config);
  safedm::monitor::SafeDmConfig dm_config = spec.dm;
  dm_config.start_enabled = true;
  SafeDm dm(dm_config);
  TimedObserver proxy(dm);
  soc.add_observer(tracer.enabled() ? static_cast<safedm::soc::CycleObserver*>(&proxy) : &dm);
  soc.load_redundant(program, spec.stagger_nops, spec.delayed_core);
  const unsigned n = soc.group_size(0);
  for (unsigned r = 0; r < n; ++r)
    dm.set_prelude_ignore(r, soc.prelude_commits(soc.group_core(0, r)));
  const double setup_s = tracer.close(setup_span);

  const std::size_t run_span = tracer.open("soc.run");
  const u64 cycles = soc.run(spec.max_cycles);
  tracer.add_aggregate("safedm.observe", proxy.seconds, proxy.batch_calls + proxy.cycle_calls);
  const double run_s = tracer.close(run_span);

  const std::size_t finalize_span = tracer.open("safedm.finalize");
  dm.finalize();
  tracer.close(finalize_span);
  out.host_ms = 1e3 * seconds_between(start, Clock::now());

  if (tracer.enabled()) {
    pass.layer["soc.setup_s"] += setup_s;
    pass.layer["soc.run_s"] += run_s;
    pass.layer["safedm.observe_s"] += proxy.seconds;
    pass.layer["safedm.batch_calls"] += static_cast<double>(proxy.batch_calls);
    pass.layer["safedm.cycle_calls"] += static_cast<double>(proxy.cycle_calls);
    // Scratch sum; finish_rig_layers turns it into batched_cycles_frac.
    pass.layer["safedm.batched_cycles"] += static_cast<double>(proxy.batched_cycles);
  }

  safedm::scenario::RunOutcome& o = out.outcome;
  o.cycles = cycles;
  o.completed = soc.all_halted();
  const safedm::monitor::SafeDmCounters& c = dm.counters();
  o.monitored_cycles = c.monitored_cycles;
  o.zero_stag = c.zero_stag_cycles;
  o.nodiv = c.nodiv_cycles;
  o.ds_match = c.ds_match_cycles;
  o.is_match = c.is_match_cycles;
  o.distance_sum = c.distance_sum;
  o.distance_min = c.distance_min;
  o.distance_max = c.distance_max;
  o.committed0 = soc.core(0).stats().committed;
  o.committed1 = soc.core(1).stats().committed;
  for (unsigned r = 0; r < n; ++r) {
    const unsigned core = soc.group_core(0, r);
    out.committed.push_back(soc.core(core).stats().committed);
    out.results.push_back(
        soc.memory().load(soc.data_base(core) + safedm::workloads::kResultOffset, 8));
  }
  for (unsigned p = 0; p < dm.num_pairs(); ++p) out.pairs.push_back(dm.pair_counters(p));
  model.add_run(soc, dm);
  cmp.add_run(dm);
  pass.sim_cycles += cycles;
  for (const u64 count : out.committed) pass.sim_instr += count;
  return out;
}

void finish_rig_layers(PassResult& pass, const ModelTotals& model, const ComparatorTotals& cmp) {
  cmp.to_metrics(pass.layer, model.monitored);
  if (pass.layer.count("soc.run_s") == 0) return;  // untraced pass: no layer times
  pass.layer["soc.self_s"] = pass.layer["soc.run_s"] - pass.layer["safedm.observe_s"];
  const double delivered = pass.layer["safedm.batched_cycles"] + pass.layer["safedm.cycle_calls"];
  pass.layer["safedm.batched_cycles_frac"] =
      delivered > 0 ? pass.layer["safedm.batched_cycles"] / delivered : 0.0;
  pass.layer.erase("safedm.batched_cycles");
}

}  // namespace perfbench
