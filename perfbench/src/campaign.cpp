// `campaign`: the checkpoint-engine fault campaign over cubic, md5 and sha
// with 6 sampled cycles per verdict class and the engine's default
// registers and bits (648 injections), serially. The seed is the campaign
// seed, so it picks the injection sites.
//
// The pass drives the engine's per-site seam itself so each injection is
// timed: reference runs with checkpoints, plan sampling, site enumeration,
// then one run_site call per site, folded in site order exactly as
// run_engine folds them. The resulting safedm.bench.faultsim/v1 report is
// byte-compared with the pinned digest (taken from bench_faultsim_campaign
// at the pinned seed); on every seed a single-fault injection classified
// as CCF fails its operation, since one faulted core can never make both
// results agree on a wrong value.
#include <cstdio>
#include <sstream>

#include "bench.hpp"
#include "campaign_internal.hpp"
#include "safedm/faultsim/campaign.hpp"
#include "safedm/workloads/workloads.hpp"

namespace perfbench {
namespace {

namespace fsim = safedm::faultsim;

const char* const kOutcomes[] = {"masked", "detected", "ccf", "crashed", "hung"};
// 3 workloads x 2 verdict classes x 6 cycles x 3 registers x 3 bits x 2 fault models.
constexpr u64 kInjections = 648;

class Campaign final : public Workload {
 public:
  explicit Campaign(const WorkloadArgs& args) {
    config_.workloads = {"cubic", "md5", "sha"};
    config_.samples_per_class = 6;
    config_.seed = args.seed;
    config_.threads = 1;
    config_.engine = fsim::InjectionEngine::kCheckpoint;
  }

  double setup() override {
    const auto start = Clock::now();
    programs_.clear();
    for (const std::string& name : config_.workloads)
      programs_.push_back(safedm::workloads::build(name, config_.scale));
    return seconds_between(start, Clock::now());
  }

  PassResult pass(Tracer& tracer, Calibrator& calibrator) override {
    PassResult pass;
    const auto start = Clock::now();

    std::vector<fsim::detail::WorkloadPlan> plans;
    double reference_s = 0, checkpoint_bytes = 0;
    for (std::size_t w = 0; w < programs_.size(); ++w) {
      tracer.begin_op("faultsim.reference", "campaign/" + config_.workloads[w]);
      const auto ref_start = Clock::now();
      fsim::CheckpointPolicy policy;
      policy.interval = config_.checkpoint_interval;
      fsim::ReferenceTrace trace = fsim::record_reference(programs_[w], config_.dm, policy);
      reference_s += seconds_between(ref_start, Clock::now());
      tracer.end_op();
      for (const fsim::Checkpoint& c : trace.checkpoints)
        checkpoint_bytes += static_cast<double>(c.state.size());
      plans.push_back(
          fsim::detail::finish_plan(programs_[w], std::move(trace), config_.workloads[w], config_));
    }

    fsim::EngineReport report;
    report.config = config_;
    report.workloads.resize(plans.size());
    for (std::size_t w = 0; w < plans.size(); ++w) {
      fsim::WorkloadReport& wr = report.workloads[w];
      wr.name = config_.workloads[w];
      wr.reference_cycles = plans[w].trace.cycles;
      wr.diverse_pool = plans[w].pool_size[0];
      wr.nodiv_pool = plans[w].pool_size[1];
    }

    Digest digest;
    double inject_s[5] = {};
    double inject_n[5] = {};
    const std::vector<fsim::detail::Site> sites = fsim::detail::enumerate_sites(config_, plans);
    for (const fsim::detail::Site& site : sites) {
      char cell[96];
      std::snprintf(cell, sizeof cell, "campaign/%s/%s/c%llu/x%u/b%u%s",
                    config_.workloads[site.workload].c_str(), site.nodiv_class ? "nodiv" : "diverse",
                    static_cast<unsigned long long>(site.injection.cycle), site.injection.reg,
                    site.injection.bit, site.single ? "/single" : "");
      tracer.begin_op("faultsim.inject", cell);
      const auto op_start = Clock::now();
      const fsim::InjectionResult result =
          fsim::detail::run_site(site, plans[site.workload], config_);
      const double op_s = seconds_between(op_start, Clock::now());
      tracer.end_op();
      pass.add_op(1e3 * op_s, calibrator);
      const int outcome = static_cast<int>(result.outcome);
      inject_s[outcome] += op_s;
      inject_n[outcome] += 1;
      digest.add(static_cast<u64>(outcome));
      digest.add(result.detection_latency);

      fsim::WorkloadReport& wr = report.workloads[site.workload];
      if (site.single)
        wr.single.add(result);
      else
        wr.identical[site.nodiv_class ? 1 : 0].add(result);
      ++wr.injections;
      ++report.injections;
      if (site.single && result.outcome == fsim::Outcome::kCcf)
        pass.fail_op(std::string(cell) + ": a single-fault injection escaped as CCF");
    }
    const std::string json = fsim::report_to_json(report);
    pass.seconds = seconds_between(start, Clock::now());

    digest.add(json);
    pass.digest = digest.value();
    pass.pinned["report_fnv1a"] = hex64(fnv1a_bytes(json));
    if (report.injections != kInjections)
      pass.fail_pass("campaign ran " + std::to_string(report.injections) + " injections, expected " +
                     std::to_string(kInjections));

    if (tracer.enabled()) {
      pass.layer["faultsim.reference_s"] = reference_s;
      pass.layer["faultsim.checkpoint_bytes"] = checkpoint_bytes;
      for (int o = 0; o < 5; ++o) {
        pass.layer[std::string("faultsim.inject_s.") + kOutcomes[o]] = inject_s[o];
        pass.layer[std::string("faultsim.inject_n.") + kOutcomes[o]] = inject_n[o];
      }
      pass.layer["faultsim.inject_ms_p50"] = percentile(pass.op_ms, 0.5);
      pass.layer["faultsim.inject_ms_p95"] = percentile(pass.op_ms, 0.95);
    }
    return pass;
  }

 private:
  fsim::EngineConfig config_;
  std::vector<safedm::assembler::Program> programs_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign(const WorkloadArgs& args) {
  return std::make_unique<Campaign>(args);
}

}  // namespace perfbench
