// `group`: one 8-replica redundancy group (28 pairwise comparators,
// any_pair verdict policy) running the Table-I programs except the two
// longest (prime, matrix1, which alone would take most of a pass), one
// redundant run each, serially. This is the workload that exercises the
// monitor's N > 2 kernel (on_group_cycles).
//
// The seed decorrelates the replicas DME-style: each replica gets its own
// text offset, data offset and register-shuffle seed, all drawn from the
// seed. Checks per run: every replica halts with the program's pinned
// result; under any_pair the group's no-div count lies between the
// largest pair's and the sum over pairs; at the pinned seed every pair's
// no-div, DS-match, IS-match and zero-stag counters match expected/group.json.
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "rig.hpp"
#include "safedm/common/rng.hpp"
#include "safedm/workloads/workloads.hpp"

namespace perfbench {
namespace {

using safedm::scenario::JsonValue;

constexpr const char* kSkipped[] = {"prime", "matrix1"};
constexpr unsigned kReplicas = 8;
constexpr u64 kTextSlot = 0x10000;  // per-replica text window slice

std::vector<u64> pair_values(const RigRun& run) {
  std::vector<u64> values;
  for (const auto& p : run.pairs)
    for (const u64 v : {p.nodiv_cycles, p.ds_match_cycles, p.is_match_cycles, p.zero_stag_cycles})
      values.push_back(v);
  return values;
}

class Group final : public Workload {
 public:
  explicit Group(const WorkloadArgs& args) : args_(args) {
    if (!args.pins) return;
    for (const auto& [name, value] : json_member(*args.pins, "results").members)
      result_pins_.push_back(json_u64(value));
    if (json_u64(json_member(*args.pins, "pinned_seed")) != args.seed) return;
    for (const JsonValue& run : json_member(*args.pins, "pairs").items) {
      pair_pins_.emplace_back();
      for (const JsonValue& v : run.items) pair_pins_.back().push_back(json_u64(v));
    }
  }

  double setup() override {
    const auto start = Clock::now();
    programs_.clear();
    names_.clear();
    for (const auto& info : safedm::workloads::registry()) {
      if (std::find(std::begin(kSkipped), std::end(kSkipped), info.name) != std::end(kSkipped))
        continue;
      names_.push_back(info.name);
      programs_.push_back(info.build(1));
    }
    const double build_s = seconds_between(start, Clock::now());

    safedm::Fnv1a64 h;
    h.add(0x67726F7570ULL);  // "group"
    h.add(args_.seed);
    safedm::Xoshiro256 rng(h.value());
    spec_ = safedm::scenario::RunSpec{};
    safedm::soc::GroupSpec group = safedm::soc::GroupSpec::homogeneous(kReplicas);
    for (unsigned r = 0; r < kReplicas; ++r) {
      safedm::soc::ReplicaSpec& rep = group.replicas[r];
      rep.text_offset = r * kTextSlot + 4 * rng.below(kTextSlot / 16);
      rep.data_offset = 16 * rng.below(0x1000);
      rep.reg_shuffle_seed = static_cast<u32>(rng.next());
    }
    spec_.soc.groups = {group};
    spec_.dm.num_replicas = kReplicas;
    spec_.dm.policy = safedm::monitor::VerdictPolicy::kAnyPair;
    return build_s;
  }

  PassResult pass(Tracer& tracer, Calibrator& calibrator) override {
    PassResult pass;
    ModelTotals model;
    ComparatorTotals cmp;
    Digest digest;
    last_pairs_.clear();
    last_results_.clear();
    const auto start = Clock::now();
    for (std::size_t w = 0; w < programs_.size(); ++w) {
      const std::string cell =
          "group/" + names_[w] + "/seed" + std::to_string(args_.seed);
      tracer.begin_op("group.run", cell);
      const RigRun run = run_rig(programs_[w], spec_, tracer, pass, model, cmp);
      tracer.end_op();
      pass.add_op(run.host_ms, calibrator);

      const std::vector<u64> pairs = pair_values(run);
      digest.add(run.outcome.cycles);
      for (const u64 v : pairs) digest.add(v);
      for (const u64 c : run.committed) digest.add(c);
      last_pairs_.push_back(pairs);
      last_results_.push_back(run.results[0]);

      u64 max_pair = 0, sum_pairs = 0;
      for (const auto& p : run.pairs) {
        max_pair = std::max(max_pair, p.nodiv_cycles);
        sum_pairs += p.nodiv_cycles;
      }
      std::string problem;
      if (!run.outcome.completed) problem = "a replica did not halt";
      for (const u64 result : run.results)
        if (result != run.results[0]) problem = "replicas disagree on the result";
      if (w < result_pins_.size() && run.results[0] != result_pins_[w])
        problem = "result differs from the pinned checksum";
      if (run.outcome.nodiv < max_pair || run.outcome.nodiv > sum_pairs)
        problem = "any_pair group no-div outside [max pair, sum of pairs]";
      if (!pair_pins_.empty() && (w >= pair_pins_.size() || pairs != pair_pins_[w]))
        problem = "pair counters differ from expected/group.json";
      if (!problem.empty()) pass.fail_op(cell + ": " + problem);
    }
    pass.seconds = seconds_between(start, Clock::now());
    if (args_.pins && result_pins_.size() != programs_.size())
      pass.fail_pass("expected/group.json does not cover the program subset");

    model.add_to(digest);
    pass.digest = digest.value();
    model.to_metrics(pass.model);
    finish_rig_layers(pass, model, cmp);
    return pass;
  }

  std::string pin_members() const override {
    std::ostringstream os;
    os << "  \"results\": {";
    for (std::size_t w = 0; w < last_results_.size(); ++w)
      os << (w ? "," : "") << "\n    \"" << names_[w] << "\": \"" << hex64(last_results_[w])
         << '"';
    os << "\n  },\n  \"pairs\": [";
    for (std::size_t w = 0; w < last_pairs_.size(); ++w) {
      os << (w ? "," : "") << "\n    [";
      for (std::size_t i = 0; i < last_pairs_[w].size(); ++i)
        os << (i ? ", " : "") << last_pairs_[w][i];
      os << ']';
    }
    os << "\n  ]";
    return os.str();
  }

 private:
  WorkloadArgs args_;
  std::vector<u64> result_pins_;
  std::vector<std::vector<u64>> pair_pins_;  // at the pinned seed only
  std::vector<std::string> names_;
  std::vector<safedm::assembler::Program> programs_;
  safedm::scenario::RunSpec spec_;
  std::vector<std::vector<u64>> last_pairs_;
  std::vector<u64> last_results_;
};

}  // namespace

std::unique_ptr<Workload> make_group(const WorkloadArgs& args) {
  return std::make_unique<Group>(args);
}

}  // namespace perfbench
